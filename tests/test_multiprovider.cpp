// Multi-provider federation (§IV.C.a): recursive queries across domains.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "attacks/attacks.hpp"
#include "crypto/sha256.hpp"
#include "hsa/transfer.hpp"
#include "rvaas/multiprovider.hpp"
#include "util/hex.hpp"
#include "workload/as_world.hpp"
#include "workload/scenario.hpp"

namespace rvaas::core {
namespace {

using sdn::HostId;
using sdn::PortNo;
using sdn::PortRef;
using sdn::SwitchId;
using workload::ScenarioConfig;
using workload::ScenarioRuntime;

// Two domains, each a 3-switch line. Domain A's last switch has a border
// port (dark in A's topology) peered with domain B's first switch.
struct FederationFixture {
  std::unique_ptr<ScenarioRuntime> a;
  std::unique_ptr<ScenarioRuntime> b;
  Federation fed;

  static constexpr PortRef kBorderA{SwitchId(3), PortNo(3)};
  static constexpr PortRef kIngressB{SwitchId(1), PortNo(3)};

  FederationFixture() {
    ScenarioConfig ca;
    ca.generated = workload::linear(3);
    ca.seed = 31;
    a = std::make_unique<ScenarioRuntime>(std::move(ca));

    ScenarioConfig cb;
    cb.generated = workload::linear(3);
    cb.seed = 32;
    b = std::make_unique<ScenarioRuntime>(std::move(cb));

    fed.add_domain(ProviderId(1), a->rvaas());
    fed.add_domain(ProviderId(2), b->rvaas());
    fed.add_peering(ProviderId(1), kBorderA, ProviderId(2), kIngressB);
  }

  /// Routes traffic from A's host0 out of the border port (the compromised
  /// or legitimate config routes into the peer domain), and inside B from
  /// the ingress to B's host at switch 3.
  void install_cross_domain_path() {
    const sdn::ControllerId provider_a(1);
    sdn::FlowMod to_border;
    to_border.priority = 40;
    to_border.match = sdn::Match().in_port(PortNo(2));  // host port in linear()
    to_border.actions = {sdn::output(PortNo(1))};
    a->network().switch_sim(SwitchId(1)).apply_flow_mod(provider_a, to_border);
    sdn::FlowMod fwd;
    fwd.priority = 40;
    fwd.match = sdn::Match().in_port(PortNo(0));
    fwd.actions = {sdn::output(PortNo(1))};
    a->network().switch_sim(SwitchId(2)).apply_flow_mod(provider_a, fwd);
    sdn::FlowMod out_border;
    out_border.priority = 40;
    out_border.match = sdn::Match().in_port(PortNo(0));
    out_border.actions = {sdn::output(PortNo(3))};  // dark border port
    a->network().switch_sim(SwitchId(3)).apply_flow_mod(provider_a, out_border);

    // Inside B: ingress port 3 of switch 1 toward the host on switch 3.
    const sdn::ControllerId provider_b(1);
    sdn::FlowMod b1;
    b1.priority = 40;
    b1.match = sdn::Match().in_port(PortNo(3));
    b1.actions = {sdn::output(PortNo(1))};
    b->network().switch_sim(SwitchId(1)).apply_flow_mod(provider_b, b1);
    sdn::FlowMod b2;
    b2.priority = 40;
    b2.match = sdn::Match().in_port(PortNo(0));
    b2.actions = {sdn::output(PortNo(1))};
    b->network().switch_sim(SwitchId(2)).apply_flow_mod(provider_b, b2);
    sdn::FlowMod b3;
    b3.priority = 40;
    b3.match = sdn::Match().in_port(PortNo(0));
    b3.actions = {sdn::output(PortNo(2))};  // host port
    b->network().switch_sim(SwitchId(3)).apply_flow_mod(provider_b, b3);

    // Let the flow-monitor events reach both RVaaS snapshots.
    a->settle();
    b->settle();
  }
};

TEST(Federation, SingleDomainQueryStopsAtBorder) {
  FederationFixture f;
  // Without peering knowledge the border port is just a dark endpoint.
  Federation lonely;
  lonely.add_domain(ProviderId(1), f.a->rvaas());
  f.install_cross_domain_path();

  const auto result = lonely.reachable(
      ProviderId(1), {SwitchId(1), PortNo(2)}, sdn::Match());
  ASSERT_GE(result.endpoints.size(), 1u);
  bool dark_border = false;
  for (const auto& e : result.endpoints) {
    if (e.info.access_point == FederationFixture::kBorderA) {
      dark_border = e.info.dark;
    }
  }
  EXPECT_TRUE(dark_border);
  EXPECT_EQ(result.subqueries, 0u);
}

TEST(Federation, RecursiveQueryCrossesDomains) {
  FederationFixture f;
  f.install_cross_domain_path();

  const auto result = f.fed.reachable(ProviderId(1), {SwitchId(1), PortNo(2)},
                                      sdn::Match());
  EXPECT_EQ(result.subqueries, 1u);
  EXPECT_EQ(result.domains_visited, 2u);

  // The final endpoint is B's host access point, attributed to provider 2.
  bool found_remote = false;
  for (const auto& e : result.endpoints) {
    if (e.provider == ProviderId(2)) {
      found_remote = true;
      EXPECT_EQ(e.info.access_point, (PortRef{SwitchId(3), PortNo(2)}));
      EXPECT_FALSE(e.info.dark);
    }
  }
  EXPECT_TRUE(found_remote);
}

TEST(Federation, EndpointsDeduplicated) {
  FederationFixture f;
  f.install_cross_domain_path();

  const auto result = f.fed.reachable(ProviderId(1), {SwitchId(1), PortNo(2)},
                                      sdn::Match());
  for (std::size_t i = 0; i < result.endpoints.size(); ++i) {
    for (std::size_t j = i + 1; j < result.endpoints.size(); ++j) {
      EXPECT_FALSE(result.endpoints[i] == result.endpoints[j])
          << "duplicate federated endpoint at " << i << "/" << j;
    }
  }
}

TEST(Federation, DepthLimitReported) {
  FederationFixture f;
  f.install_cross_domain_path();
  const auto result = f.fed.reachable(ProviderId(1), {SwitchId(1), PortNo(2)},
                                      sdn::Match(), /*max_domains=*/1);
  EXPECT_TRUE(result.depth_exceeded);

  const auto policy = f.fed.verify_policy(
      ProviderId(1), {SwitchId(1), PortNo(2)}, sdn::Match(),
      /*max_domains=*/1);
  EXPECT_TRUE(policy.depth_exceeded);
}

TEST(Federation, ConstraintPropagatesAcrossDomains) {
  FederationFixture f;
  f.install_cross_domain_path();
  // Constrain to a vlan that no rule in A matches... A's rules here are
  // wildcard, so constrain on something B's path also carries. Use a TCP
  // constraint: still reachable (rules are wildcard), then check an
  // impossible constraint via a drop rule in B.
  const auto tcp = f.fed.reachable(
      ProviderId(1), {SwitchId(1), PortNo(2)},
      sdn::Match().exact(sdn::Field::IpProto, sdn::kIpProtoTcp));
  bool remote = false;
  for (const auto& e : tcp.endpoints) remote |= (e.provider == ProviderId(2));
  EXPECT_TRUE(remote);

  // B installs a high-priority TCP drop at its ingress: the TCP subspace
  // dies in B, so no remote endpoint for TCP anymore.
  sdn::FlowMod drop_tcp;
  drop_tcp.priority = 60;
  drop_tcp.match = sdn::Match()
                       .in_port(PortNo(3))
                       .exact(sdn::Field::IpProto, sdn::kIpProtoTcp);
  drop_tcp.actions = {sdn::drop()};
  f.b->network().switch_sim(SwitchId(1)).apply_flow_mod(sdn::ControllerId(1),
                                                        drop_tcp);
  f.b->settle();

  const auto tcp2 = f.fed.reachable(
      ProviderId(1), {SwitchId(1), PortNo(2)},
      sdn::Match().exact(sdn::Field::IpProto, sdn::kIpProtoTcp));
  bool remote2 = false;
  for (const auto& e : tcp2.endpoints) remote2 |= (e.provider == ProviderId(2));
  EXPECT_FALSE(remote2);
}

// Regression: the depth check used to run before the visited-loop guard, so
// a branch that was about to be pruned for re-entering a domain reported
// depth_exceeded when its budget happened to hit zero at the same hop. A
// two-domain cycle at max_domains=2 reproduces exactly that coincidence.
TEST(Federation, DepthNotExceededOnLoopPrune) {
  FederationFixture f;
  f.install_cross_domain_path();

  // Close the cycle: B routes its ingress traffic back out of a second
  // border port (S1,P0), wired to a dark port of A. Priority 41 shadows the
  // fixture's host-delivery route in B.
  f.fed.add_peering(ProviderId(2), {SwitchId(1), PortNo(0)}, ProviderId(1),
                    {SwitchId(1), PortNo(0)});
  sdn::FlowMod back;
  back.priority = 41;
  back.match = sdn::Match().in_port(PortNo(3));
  back.actions = {sdn::output(PortNo(0))};
  f.b->network().switch_sim(SwitchId(1)).apply_flow_mod(sdn::ControllerId(1),
                                                        back);
  f.b->settle();

  const auto result = f.fed.reachable(ProviderId(1), {SwitchId(1), PortNo(2)},
                                      sdn::Match(), /*max_domains=*/2);
  // The walk A -> B -> (A again) ends on the loop guard, not the budget:
  // both domains were visited and nothing was left unexplored.
  EXPECT_FALSE(result.depth_exceeded);
  EXPECT_EQ(result.domains_visited, 2u);

  // The policy walk shares the guard order.
  const auto policy = f.fed.verify_policy(
      ProviderId(1), {SwitchId(1), PortNo(2)}, sdn::Match(),
      /*max_domains=*/2);
  EXPECT_FALSE(policy.depth_exceeded);
  EXPECT_EQ(policy.domains_visited, 2u);
}

// ---------------------------------------------------------------------------
// PolicyCompliance walks (QueryKind::PolicyCompliance through the engine).

namespace policy_fixture {

/// Customer/provider relation for the fixture's single peering, plus B
/// authorized to originate its switch-3 host.
void declare_baseline(FederationFixture& f) {
  f.fed.declare_relation(ProviderId(1), ProviderId(2), NeighborClass::Customer);
  f.fed.declare_relation(ProviderId(2), ProviderId(1), NeighborClass::Provider);
  const std::uint32_t b_host_ip =
      control::HostAddressing::derive(f.b->hosts()[2]).ip;
  f.fed.authorize_origin(
      ProviderId(2), hsa::HeaderSpace(hsa::match_to_cube(sdn::Match().exact(
                         sdn::Field::IpDst, b_host_ip))));
}

}  // namespace policy_fixture

TEST(PolicyCompliance, CleanCrossingReportsOkAndVerifies) {
  FederationFixture f;
  f.install_cross_domain_path();
  policy_fixture::declare_baseline(f);

  const std::uint32_t b_host_ip =
      control::HostAddressing::derive(f.b->hosts()[2]).ip;
  const auto v = f.fed.verify_policy(
      ProviderId(1), {SwitchId(1), PortNo(2)},
      sdn::Match().exact(sdn::Field::IpDst, b_host_ip));

  // One crossing (A -> B), judged Ok; the in-origin terminal delivery in B
  // adds no item.
  ASSERT_EQ(v.reply.policy_report.size(), 1u);
  const PolicyReportItem& item = v.reply.policy_report.front();
  EXPECT_EQ(item.verdict, PolicyVerdict::Ok);
  EXPECT_EQ(item.from, ProviderId(1));
  EXPECT_EQ(item.to, ProviderId(2));
  EXPECT_EQ(item.border, FederationFixture::kBorderA);
  EXPECT_EQ(item.ingress, FederationFixture::kIngressB);
  EXPECT_EQ(v.domains_visited, 2u);
  EXPECT_EQ(v.subqueries, 1u);
  EXPECT_FALSE(v.depth_exceeded);

  // The report is signed by the start domain's enclave like any reply.
  EXPECT_TRUE(f.a->rvaas().enclave().verify_key().verify(
      v.reply.signing_payload(), v.signature));

  // A clean report raises no violations in reply evaluation.
  EXPECT_TRUE(evaluate_reply(v.reply, Expectation{}).ok);
}

TEST(PolicyCompliance, ForeignDeliveryFlagsUnauthorizedOrigin) {
  FederationFixture f;
  f.install_cross_domain_path();
  policy_fixture::declare_baseline(f);

  // The fixture routes by in_port, so ANY destination entering A's host
  // port is handed to B and delivered at B's host — including a prefix B
  // never originated. No attack rule needed: the baseline config itself is
  // the hijack.
  const auto v = f.fed.verify_policy(
      ProviderId(1), {SwitchId(1), PortNo(2)},
      sdn::Match().exact(sdn::Field::IpDst, 0x0a0a0a0au));

  bool hijack = false;
  for (const PolicyReportItem& item : v.reply.policy_report) {
    if (item.verdict != PolicyVerdict::UnauthorizedOrigin) continue;
    hijack = true;
    EXPECT_EQ(item.from, ProviderId(2));
    EXPECT_EQ(item.to, ProviderId(2));
    EXPECT_EQ(item.border, (PortRef{SwitchId(3), PortNo(2)}));
  }
  EXPECT_TRUE(hijack);

  // The violation surfaces through reply evaluation.
  EXPECT_FALSE(evaluate_reply(v.reply, Expectation{}).ok);
}

TEST(PolicyCompliance, ProviderToProviderCrossingFlagsRouteLeak) {
  FederationFixture f;
  f.install_cross_domain_path();
  // B is A's PROVIDER here (the inverse of declare_baseline): traffic that
  // enters A from B and exits A back toward B is a Gao-Rexford valley.
  f.fed.declare_relation(ProviderId(1), ProviderId(2), NeighborClass::Provider);
  f.fed.declare_relation(ProviderId(2), ProviderId(1), NeighborClass::Customer);
  // Wire a provider-fed ingress into A: B's second border (S1,P0) feeds
  // A's dark port (S1,P0)...
  f.fed.add_peering(ProviderId(2), {SwitchId(1), PortNo(0)}, ProviderId(1),
                    {SwitchId(1), PortNo(0)});
  // ...and A forwards that ingress along the line and out of kBorderA.
  sdn::FlowMod leak;
  leak.priority = 41;
  leak.match = sdn::Match().in_port(PortNo(0));
  leak.actions = {sdn::output(PortNo(1))};
  f.a->network().switch_sim(SwitchId(1)).apply_flow_mod(sdn::ControllerId(1),
                                                        leak);
  f.a->settle();

  const auto v = f.fed.verify_policy(ProviderId(1), {SwitchId(1), PortNo(0)},
                                     sdn::Match());
  bool leaked = false;
  for (const PolicyReportItem& item : v.reply.policy_report) {
    if (item.verdict != PolicyVerdict::RouteLeak) continue;
    leaked = true;
    EXPECT_EQ(item.from, ProviderId(1));
    EXPECT_EQ(item.to, ProviderId(2));
    EXPECT_EQ(item.border, FederationFixture::kBorderA);
  }
  EXPECT_TRUE(leaked);
}

TEST(PolicyCompliance, UndeclaredRelationFlagsUnexpectedCrossing) {
  FederationFixture f;
  f.install_cross_domain_path();
  // Peering wired, relations never declared.
  const auto v = f.fed.verify_policy(ProviderId(1), {SwitchId(1), PortNo(2)},
                                     sdn::Match());
  bool unexpected = false;
  for (const PolicyReportItem& item : v.reply.policy_report) {
    unexpected |= item.verdict == PolicyVerdict::UnexpectedCrossing;
  }
  EXPECT_TRUE(unexpected);
}

TEST(PolicyCompliance, ExportDenyRuleFlagsCrossing) {
  FederationFixture f;
  f.install_cross_domain_path();
  policy_fixture::declare_baseline(f);

  const std::uint32_t b_host_ip =
      control::HostAddressing::derive(f.b->hosts()[2]).ip;
  const sdn::Match dst = sdn::Match().exact(sdn::Field::IpDst, b_host_ip);

  // Clean under the structural rules alone...
  const auto before = f.fed.verify_policy(ProviderId(1),
                                          {SwitchId(1), PortNo(2)}, dst);
  ASSERT_EQ(before.reply.policy_report.size(), 1u);
  EXPECT_EQ(before.reply.policy_report.front().verdict, PolicyVerdict::Ok);

  // ...until A's export store denies that prefix toward customers.
  RoutePolicy policy;
  policy.export_rules.push_back(RoutePolicyRule{
      NeighborClass::Customer, hsa::HeaderSpace(hsa::match_to_cube(dst)),
      /*allow=*/false});
  f.fed.set_policy(ProviderId(1), std::move(policy));

  const auto after = f.fed.verify_policy(ProviderId(1),
                                         {SwitchId(1), PortNo(2)}, dst);
  ASSERT_GE(after.reply.policy_report.size(), 1u);
  EXPECT_EQ(after.reply.policy_report.front().verdict,
            PolicyVerdict::UnexpectedCrossing);
}

TEST(PolicyCompliance, AsWorldBaselineIsClean) {
  workload::AsWorldConfig config;
  config.n_domains = 4;
  config.seed = 9;
  config.tier0_fat_tree = false;  // cheap worlds are enough here
  workload::AsWorld world(config);
  ASSERT_GE(world.transit_ingresses().size(), 2u);

  // From every transit ingress, walk toward a same-domain host, a
  // down-cone host, and a foreign host: the valley-free baseline must
  // produce only Ok crossings (foreign destinations die at the ingress
  // guard and report nothing at all).
  for (const auto& in : world.transit_ingresses()) {
    std::vector<std::uint32_t> dsts;
    dsts.push_back(
        control::HostAddressing::derive(world.domain_hosts(in.domain)[0]).ip);
    dsts.push_back(world.cone_ips(in.domain).back());
    for (std::size_t d = 0; d < world.domain_count(); ++d) {
      const auto& cone = world.cone_ips(in.domain);
      const std::uint32_t foreign =
          control::HostAddressing::derive(world.domain_hosts(d)[0]).ip;
      if (std::find(cone.begin(), cone.end(), foreign) == cone.end()) {
        dsts.push_back(foreign);
        break;
      }
    }
    for (const std::uint32_t dst : dsts) {
      const auto v = world.federation().verify_policy(
          workload::AsWorld::provider_of(in.domain), in.port,
          sdn::Match().exact(sdn::Field::IpDst, dst));
      for (const PolicyReportItem& item : v.reply.policy_report) {
        EXPECT_EQ(item.verdict, PolicyVerdict::Ok)
            << to_string(item.verdict) << " from domain " << item.from.value
            << " walking dst " << dst << " at ingress domain " << in.domain;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Golden outputs of both walk kinds over seeded AS worlds: the baseline,
// one route-origin hijack and one route leak. Policy replies are pinned
// byte for byte (report order is signed); reach answers are a set, so
// their endpoints are pinned sorted. A restructured walk must reproduce
// these digests unchanged; a different digest is a behaviour change.

namespace walk_pin {

using workload::AsWorld;

sdn::Match dst_tcp(std::uint32_t dst) {
  return sdn::Match()
      .exact(sdn::Field::IpDst, dst)
      .exact(sdn::Field::IpProto, sdn::kIpProtoTcp);
}

/// First host IP of another domain outside `d`'s customer cone.
std::uint32_t foreign_ip(AsWorld& world, std::size_t d) {
  const auto& cone = world.cone_ips(d);
  for (std::size_t x = 0; x < world.domain_count(); ++x) {
    if (x == d) continue;
    for (const auto h : world.domain_hosts(x)) {
      const std::uint32_t ip = control::HostAddressing::derive(h).ip;
      if (std::find(cone.begin(), cone.end(), ip) == cone.end()) return ip;
    }
  }
  ADD_FAILURE() << "no foreign destination for domain " << d;
  return 0;
}

struct Walk {
  std::size_t domain = 0;
  PortRef ingress;
  sdn::Match constraint;
  std::uint32_t max_domains = 4;
};

/// Runs both walk kinds for every entry of `walks` and folds their outputs
/// into `w`.
void record(AsWorld& world, const std::vector<Walk>& walks,
            util::ByteWriter& w) {
  for (const Walk& walk : walks) {
    const ProviderId start = AsWorld::provider_of(walk.domain);
    const PolicyVerification v = world.federation().verify_policy(
        start, walk.ingress, walk.constraint, walk.max_domains);
    w.put_bytes(v.reply.signing_payload());
    w.put_bytes(v.signature.serialize());
    w.put_u32(v.domains_visited);
    w.put_u32(v.subqueries);
    w.put_u32(v.max_walk_depth);
    w.put_bool(v.depth_exceeded);

    FederatedResult r = world.federation().reachable(
        start, walk.ingress, walk.constraint, walk.max_domains);
    const auto key = [](const FederatedEndpoint& e) {
      return std::tuple(e.provider.value, e.info.access_point.sw.value,
                        e.info.access_point.port.value, e.info.dark);
    };
    std::sort(r.endpoints.begin(), r.endpoints.end(),
              [&](const FederatedEndpoint& a, const FederatedEndpoint& b) {
                return key(a) < key(b);
              });
    w.put_u32(static_cast<std::uint32_t>(r.endpoints.size()));
    for (const FederatedEndpoint& e : r.endpoints) {
      util::ByteWriter ew;
      e.info.serialize(ew);
      w.put_u32(e.provider.value);
      w.put_bytes(ew.data());
    }
    w.put_u32(r.subqueries);
    w.put_u32(r.domains_visited);
    w.put_bool(r.depth_exceeded);
  }
}

std::string digest(const util::ByteWriter& w) {
  return util::to_hex(crypto::sha256(w.data()));
}

}  // namespace walk_pin

TEST(Federation, WalkOutputsPinned) {
  using walk_pin::Walk;
  workload::AsWorldConfig config;
  config.n_domains = 6;
  config.seed = 23;
  config.tier0_fat_tree = false;
  workload::AsWorld world(config);
  const auto transit = world.transit_ingresses();
  ASSERT_GE(transit.size(), 3u);

  // From each transit ingress: a deep in-cone destination and a foreign
  // one. From one host of every domain: the whole header space, which the
  // default routes carry up and across the hierarchy (many crossings,
  // domains re-entered through several branches, and a tight budget on
  // every other domain).
  std::vector<Walk> walks;
  for (const auto& in : transit) {
    walks.push_back({in.domain, in.port,
                     walk_pin::dst_tcp(world.cone_ips(in.domain).back())});
    walks.push_back({in.domain, in.port,
                     walk_pin::dst_tcp(walk_pin::foreign_ip(world,
                                                            in.domain))});
  }
  for (std::size_t d = 0; d < world.domain_count(); ++d) {
    const PortRef host_port = world.domain(d).rvaas().engine().topology()
                                  .host_ports(world.domain_hosts(d).front())
                                  .front();
    walks.push_back({d, host_port, sdn::Match(), d % 2 == 0 ? 8u : 2u});
  }

  util::ByteWriter baseline;
  walk_pin::record(world, walks, baseline);

  // Route-origin hijack at the first transit ingress.
  util::ByteWriter hijacked;
  {
    const auto& in = transit.front();
    workload::ScenarioRuntime& rt = world.domain(in.domain);
    attacks::RouteOriginHijackAttack hijack(
        walk_pin::foreign_ip(world, in.domain), in.port,
        world.domain_hosts(in.domain).front());
    ASSERT_TRUE(hijack.launch(rt.provider(), rt.network()).has_value());
    rt.settle();
    walk_pin::record(world, walks, hijacked);
    hijack.revert(rt.provider(), rt.network());
    rt.settle();
  }

  // Route leak between the first pair of transit ingresses of one domain
  // that the baseline routing connects.
  util::ByteWriter leaked;
  bool leak_launched = false;
  for (std::size_t i = 0; i < transit.size() && !leak_launched; ++i) {
    for (std::size_t j = 0; j < transit.size() && !leak_launched; ++j) {
      if (i == j || transit[i].domain != transit[j].domain) continue;
      const std::size_t d = transit[i].domain;
      workload::ScenarioRuntime& rt = world.domain(d);
      attacks::RouteLeakAttack leak(transit[i].port, transit[j].port,
                                    walk_pin::foreign_ip(world, d));
      if (!leak.launch(rt.provider(), rt.network())) continue;
      leak_launched = true;
      rt.settle();
      walk_pin::record(world, walks, leaked);
      leak.revert(rt.provider(), rt.network());
      rt.settle();
    }
  }
  ASSERT_TRUE(leak_launched);

  EXPECT_EQ(walk_pin::digest(baseline),
            "7801f91f099c5b50038793169d178a54de1a82376ce136389cddb76d7b8ffb2c");
  EXPECT_EQ(walk_pin::digest(hijacked),
            "68711d77dbaba6ddd558020c6161c6fbc31b5afb612ab87eda4ef847b7963711");
  EXPECT_EQ(walk_pin::digest(leaked),
            "7cb0bd38db58f4094011f7730fd64fe9a85198ca7b99f9c8536de232881b8fe2");
}

TEST(Federation, DuplicateDomainRejected) {
  FederationFixture f;
  EXPECT_THROW(
      f.fed.add_domain(ProviderId(1), f.a->rvaas()),
      util::InvariantViolation);
  EXPECT_THROW(f.fed.add_peering(ProviderId(1), {SwitchId(1), PortNo(0)},
                                 ProviderId(9), {SwitchId(1), PortNo(0)}),
               util::InvariantViolation);
}

}  // namespace
}  // namespace rvaas::core
