// Batch query path (QueryEngine::run_batch): positional identity with the
// sequential per-query logical step across thread counts, on a 50-switch
// generated topology, under both confidentiality policies.

#include <gtest/gtest.h>

#include "rvaas/engine.hpp"
#include "rvaas/geo.hpp"
#include "workload/scenario.hpp"

namespace rvaas::workload {
namespace {

using core::ConfidentialityPolicy;
using core::EngineConfig;
using core::Query;
using core::QueryEngine;
using core::QueryKind;
using core::QueryReply;
using sdn::Field;
using sdn::HostId;
using sdn::Match;
using sdn::PortRef;

// 10x5 grid: 50 switches, one host each, routed by the provider controller
// and snapshotted by the RVaaS controller's passive monitoring.
struct BatchFixture {
  ScenarioRuntime runtime;
  core::DisclosedGeo geo;

  BatchFixture()
      : runtime([] {
          ScenarioConfig config;
          config.generated = grid(10, 5);
          config.tenant_count = 2;
          config.seed = 7;
          return config;
        }()),
        geo(runtime.network().topology()) {
    runtime.settle();  // drain any in-flight monitor events
  }

  QueryEngine engine(ConfidentialityPolicy policy) {
    return QueryEngine(runtime.network().topology(),
                       EngineConfig{policy, 64});
  }

  QueryEngine::EvalContext context(HostId client) {
    QueryEngine::EvalContext ctx;
    ctx.from = runtime.network().topology().host_ports(client).front();
    ctx.geo = &geo;
    ctx.addressing = &runtime.addressing();
    return ctx;
  }

  /// A mixed workload: every query kind, several constraints and peers.
  std::vector<Query> queries() {
    const auto& hosts = runtime.hosts();
    std::vector<Query> qs;
    for (const QueryKind kind :
         {QueryKind::ReachableEndpoints, QueryKind::ReachingSources,
          QueryKind::Isolation, QueryKind::Geo, QueryKind::Fairness,
          QueryKind::TransferSummary}) {
      Query q;
      q.kind = kind;
      qs.push_back(q);

      Query constrained;
      constrained.kind = kind;
      constrained.constraint =
          Match().exact(Field::IpProto, 6).exact(Field::L4Dst, 443);
      qs.push_back(constrained);
    }
    for (std::size_t i = 1; i < hosts.size(); i += 7) {
      Query q;
      q.kind = QueryKind::PathLength;
      q.peer = hosts[i];
      qs.push_back(q);
    }
    return qs;
  }
};

std::vector<util::Bytes> sequential_payloads(
    const QueryEngine& engine, BatchFixture& f,
    const QueryEngine::EvalContext& ctx, const std::vector<Query>& qs) {
  const hsa::NetworkModel model = engine.model(f.runtime.rvaas().snapshot());
  std::vector<util::Bytes> out;
  for (const Query& q : qs) {
    out.push_back(engine
                      .answer(model, f.runtime.rvaas().snapshot(), q, ctx)
                      .reply.signing_payload());
  }
  return out;
}

TEST(BatchQuery, MatchesSequentialAcrossThreadCounts) {
  BatchFixture f;
  const QueryEngine engine = f.engine(ConfidentialityPolicy::EndpointsOnly);
  const auto ctx = f.context(f.runtime.hosts().front());
  const std::vector<Query> qs = f.queries();
  const auto expected = sequential_payloads(engine, f, ctx, qs);

  for (const std::size_t threads : {1u, 2u, 3u, 4u, 6u, 8u}) {
    const std::vector<QueryReply> replies =
        engine.run_batch(f.runtime.rvaas().snapshot(), qs, threads, ctx);
    ASSERT_EQ(replies.size(), qs.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < replies.size(); ++i) {
      EXPECT_EQ(replies[i].kind, qs[i].kind);
      EXPECT_EQ(replies[i].signing_payload(), expected[i])
          << "threads=" << threads << " query=" << i;
    }
  }
}

TEST(BatchQuery, EndpointsOnlyRedactsPathsInBatchReplies) {
  BatchFixture f;
  const QueryEngine engine = f.engine(ConfidentialityPolicy::EndpointsOnly);
  const auto ctx = f.context(f.runtime.hosts().front());
  const std::vector<Query> qs = f.queries();

  const auto replies =
      engine.run_batch(f.runtime.rvaas().snapshot(), qs, 4, ctx);
  for (const QueryReply& reply : replies) {
    EXPECT_TRUE(reply.disclosed_paths.empty());
  }
}

TEST(BatchQuery, FullPathsStrawmanDisclosesIdentically) {
  BatchFixture f;
  const QueryEngine engine = f.engine(ConfidentialityPolicy::FullPaths);
  const auto ctx = f.context(f.runtime.hosts()[3]);
  const std::vector<Query> qs = f.queries();
  const auto expected = sequential_payloads(engine, f, ctx, qs);

  const auto replies =
      engine.run_batch(f.runtime.rvaas().snapshot(), qs, 8, ctx);
  bool any_disclosed = false;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    EXPECT_EQ(replies[i].signing_payload(), expected[i]) << "query=" << i;
    any_disclosed |= !replies[i].disclosed_paths.empty();
  }
  EXPECT_TRUE(any_disclosed)
      << "FullPaths on a routed 50-switch grid should disclose some path";
}

TEST(BatchQuery, DifferentClientsGetDifferentAnswers) {
  BatchFixture f;
  const QueryEngine engine = f.engine(ConfidentialityPolicy::EndpointsOnly);
  Query q;
  q.kind = QueryKind::ReachableEndpoints;
  const std::vector<Query> qs{q};

  // Tenants are assigned round-robin, so host 0 and host 1 live in different
  // tenants and must see different endpoint sets.
  const auto r0 = engine.run_batch(f.runtime.rvaas().snapshot(), qs, 2,
                                   f.context(f.runtime.hosts()[0]));
  const auto r1 = engine.run_batch(f.runtime.rvaas().snapshot(), qs, 2,
                                   f.context(f.runtime.hosts()[1]));
  ASSERT_EQ(r0.size(), 1u);
  ASSERT_EQ(r1.size(), 1u);
  EXPECT_FALSE(r0[0].endpoints.empty());
  EXPECT_NE(r0[0].signing_payload(), r1[0].signing_payload());
}

TEST(BatchQuery, ReusedPoolOverloadMatchesSpawningOverload) {
  BatchFixture f;
  const QueryEngine engine = f.engine(ConfidentialityPolicy::EndpointsOnly);
  const auto ctx = f.context(f.runtime.hosts().front());
  const std::vector<Query> qs = f.queries();
  const auto expected = sequential_payloads(engine, f, ctx, qs);

  util::ThreadPool pool(3);
  for (int round = 0; round < 3; ++round) {  // pool survives across batches
    const auto replies =
        engine.run_batch(f.runtime.rvaas().snapshot(), qs, pool, ctx);
    ASSERT_EQ(replies.size(), qs.size());
    for (std::size_t i = 0; i < replies.size(); ++i) {
      EXPECT_EQ(replies[i].signing_payload(), expected[i])
          << "round=" << round << " query=" << i;
    }
  }
}

TEST(BatchQuery, EmptyBatchIsEmpty) {
  BatchFixture f;
  const QueryEngine engine = f.engine(ConfidentialityPolicy::EndpointsOnly);
  const auto replies =
      engine.run_batch(f.runtime.rvaas().snapshot(), {}, 4,
                       f.context(f.runtime.hosts().front()));
  EXPECT_TRUE(replies.empty());
}

}  // namespace
}  // namespace rvaas::workload
