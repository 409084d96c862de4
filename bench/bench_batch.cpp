// Batch query throughput: QueryEngine::run_batch on a generated 50-switch
// topology, reporting queries/sec at 1/2/4/8 threads plus the speedup over
// the single-threaded run. The batch amortizes one NetworkModel compilation
// over the whole span; per-query fan-out uses the util::ThreadPool. Speedup
// requires actual cores — on a single-CPU host all rows converge.

#include <chrono>
#include <cstdio>
#include <vector>

#include "rvaas/engine.hpp"
#include "rvaas/geo.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;
using Clock = std::chrono::steady_clock;

namespace {

std::vector<core::Query> make_batch(const std::vector<sdn::HostId>& hosts,
                                    std::size_t n, util::Rng& rng) {
  // A mixed, shuffled workload so per-thread costs balance statistically.
  const core::QueryKind kinds[] = {
      core::QueryKind::ReachableEndpoints, core::QueryKind::Isolation,
      core::QueryKind::Geo,                core::QueryKind::Fairness,
      core::QueryKind::TransferSummary,    core::QueryKind::PathLength,
  };
  std::vector<core::Query> batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    core::Query q;
    q.kind = kinds[i % std::size(kinds)];
    if (q.kind == core::QueryKind::PathLength) {
      q.peer = hosts[rng.below(hosts.size())];
    }
    if (rng.next_bit()) {
      q.constraint =
          sdn::Match().exact(sdn::Field::IpProto, 6).exact(sdn::Field::L4Dst,
                                                           443);
    }
    batch.push_back(q);
  }
  rng.shuffle(batch);
  return batch;
}

}  // namespace

int main() {
  workload::ScenarioConfig config;
  config.generated = workload::grid(10, 5);  // 50 switches, 50 hosts
  config.tenant_count = 2;
  config.seed = 11;
  workload::ScenarioRuntime runtime(std::move(config));
  runtime.settle();

  const sdn::Topology& topo = runtime.network().topology();
  const core::QueryEngine engine(topo, core::EngineConfig{});
  const core::DisclosedGeo geo(topo);

  core::QueryEngine::EvalContext ctx;
  ctx.from = topo.host_ports(runtime.hosts().front()).front();
  ctx.geo = &geo;
  ctx.addressing = &runtime.addressing();

  util::Rng rng(17);
  constexpr std::size_t kBatchSize = 96;
  const std::vector<core::Query> batch =
      make_batch(runtime.hosts(), kBatchSize, rng);

  // Warm-up: fault in the snapshot tables and touch every query path once.
  engine.run_batch(runtime.rvaas().snapshot(), batch, 1, ctx);

  std::printf("batch query throughput — 50-switch grid, %zu queries/batch\n",
              kBatchSize);
  std::printf("%-8s %12s %12s %10s\n", "threads", "batch-ms", "queries/s",
              "speedup");

  double base_qps = 0.0;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    // One pool per row, reused across batches (spawn cost amortized).
    util::ThreadPool pool(threads <= 1 ? 0 : threads - 1);
    // Repeat until >= 1s of work for a stable estimate.
    std::size_t batches = 0;
    const auto t0 = Clock::now();
    double elapsed = 0.0;
    do {
      engine.run_batch(runtime.rvaas().snapshot(), batch, pool, ctx);
      ++batches;
      elapsed = std::chrono::duration<double>(Clock::now() - t0).count();
    } while (elapsed < 1.0);
    const double batch_ms = 1e3 * elapsed / static_cast<double>(batches);
    const double qps =
        static_cast<double>(batches * kBatchSize) / elapsed;
    if (threads == 1) base_qps = qps;
    std::printf("%-8zu %12.1f %12.0f %9.2fx\n", threads, batch_ms, qps,
                qps / base_qps);
  }
  return 0;
}
