// Control-channel fault injection and fail-stale degraded verification:
// the FaultPlane must be deterministic (byte-identical traces for identical
// seeds), the controller's retry backoff ladder is pinned, the per-switch
// health machine must walk Healthy -> Degraded -> Unreachable under a
// blackhole and recover after a heal, degraded freshness must be stamped on
// every query kind's reply and flip fail-stale verdicts, subscriptions must
// receive VerificationDegraded pushes, generation guards must discard
// in-flight stats replies after an identity reset, stop() must leave the
// event loop safe, and a deliberately broken (frozen) health machine must be
// caught by the fuzzer's degraded-honesty oracle and shrunk to a small repro.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>

#include "crypto/sha256.hpp"
#include "sdn/fault_plane.hpp"
#include "testing/fuzzer.hpp"
#include "testing/shrink.hpp"
#include "util/hex.hpp"
#include "workload/scenario.hpp"

namespace rvaas::workload {
namespace {

using core::ClientAgent;
using core::Expectation;
using core::NotificationKind;
using core::Property;
using core::Query;
using core::QueryKind;
using core::RvaasConfig;
using core::RvaasController;
using core::Verdict;
using sdn::FaultDirection;
using sdn::FaultPlane;
using sdn::FaultSpec;
using sdn::SwitchId;

constexpr sim::Time kMs = sim::kMillisecond;

/// Fixed polling keeps health-machine timing deterministic; 20ms rounds
/// match the fuzzer's fault harness.
ScenarioConfig fault_config(std::uint32_t n = 4) {
  ScenarioConfig config;
  config.generated = linear(n);
  config.seed = 7;
  config.rvaas.polling = core::PollingMode::Fixed;
  config.rvaas.poll_period = 20 * kMs;
  return config;
}

/// Scopes the plane to the RVaaS controller (id 2 in scenarios) and hooks
/// it into the network. The plane must be declared before the runtime so it
/// outlives the Network holding the raw pointer.
void attach(ScenarioRuntime& runtime, FaultPlane& plane) {
  plane.set_scope(sdn::ControllerId(2));
  runtime.network().set_fault_plane(&plane);
}

FaultSpec blackhole() {
  FaultSpec spec;
  spec.drop_probability = 1.0;
  return spec;
}

// --- FaultPlane determinism -------------------------------------------------

TEST(FaultPlane, IdenticalSeedsProduceIdenticalTraces) {
  util::Bytes traces[2];
  for (int run = 0; run < 2; ++run) {
    FaultPlane plane(0xdecaf);
    plane.enable_trace(true);
    ScenarioRuntime runtime(fault_config());
    attach(runtime, plane);
    const auto switches = runtime.network().topology().switches();

    FaultSpec lossy;
    lossy.drop_probability = 0.3;
    lossy.duplicate_probability = 0.2;
    lossy.extra_delay_max = 2 * kMs;
    plane.set_fault(switches[0], FaultDirection::ToSwitch, lossy);
    plane.set_fault(switches[1], FaultDirection::FromSwitch, lossy);

    runtime.settle(120 * kMs);
    EXPECT_GT(plane.stats().decisions, 0u);
    traces[run] = plane.trace_bytes();
  }
  EXPECT_FALSE(traces[0].empty());
  EXPECT_EQ(traces[0], traces[1]);
}

// --- retry backoff ladder ---------------------------------------------------

TEST(FaultPlane, BackoffLadderIsPinned) {
  RvaasConfig config;  // defaults: base 1ms, cap 8ms
  EXPECT_EQ(RvaasController::backoff_base_delay(0, config), 1 * kMs);
  EXPECT_EQ(RvaasController::backoff_base_delay(1, config), 2 * kMs);
  EXPECT_EQ(RvaasController::backoff_base_delay(2, config), 4 * kMs);
  EXPECT_EQ(RvaasController::backoff_base_delay(3, config), 8 * kMs);
  EXPECT_EQ(RvaasController::backoff_base_delay(4, config), 8 * kMs);
  // Far past the cap: stays pinned, no overflow.
  EXPECT_EQ(RvaasController::backoff_base_delay(63, config), 8 * kMs);

  config.retry_backoff_base = 3 * kMs;
  config.retry_backoff_cap = 10 * kMs;
  EXPECT_EQ(RvaasController::backoff_base_delay(0, config), 3 * kMs);
  EXPECT_EQ(RvaasController::backoff_base_delay(1, config), 6 * kMs);
  EXPECT_EQ(RvaasController::backoff_base_delay(2, config), 10 * kMs);
  EXPECT_EQ(RvaasController::backoff_base_delay(3, config), 10 * kMs);
}

// --- health machine ---------------------------------------------------------

TEST(Faults, HealthMachineDegradesAndRecovers) {
  FaultPlane plane(1);
  ScenarioRuntime runtime(fault_config());
  attach(runtime, plane);
  runtime.settle(30 * kMs);

  const auto switches = runtime.network().topology().switches();
  const SwitchId dark = switches[1];
  ASSERT_EQ(runtime.rvaas().switch_health(dark),
            RvaasController::SwitchHealth::Healthy);

  plane.set_fault(dark, FaultDirection::ToSwitch, blackhole());
  plane.set_fault(dark, FaultDirection::FromSwitch, blackhole());
  runtime.settle(60 * kMs);

  EXPECT_EQ(runtime.rvaas().switch_health(dark),
            RvaasController::SwitchHealth::Unreachable);
  const auto& stats = runtime.rvaas().stats();
  EXPECT_GE(stats.poll_deadline_misses, 3u);
  EXPECT_GE(stats.poll_retries, 1u);
  EXPECT_GE(stats.degraded_transitions, 1u);
  EXPECT_GE(stats.unreachable_transitions, 1u);

  const auto unreachable = runtime.rvaas().unreachable_switches();
  ASSERT_EQ(unreachable.size(), 1u);
  EXPECT_EQ(unreachable[0], dark);

  // Circuit breaker: regular poll rounds skip the dark switch while a
  // capped-cadence probe keeps testing it.
  runtime.settle(60 * kMs);
  EXPECT_GE(runtime.rvaas().stats().polls_gated, 1u);

  // Freshness is footprint-scoped: degraded through the dark switch, clean
  // past a healthy one.
  const auto fresh = runtime.rvaas().freshness_for({dark});
  EXPECT_TRUE(fresh.degraded());
  EXPECT_GT(fresh.max_staleness, 0u);
  ASSERT_EQ(fresh.unreachable.size(), 1u);
  EXPECT_EQ(fresh.unreachable[0], dark);
  EXPECT_FALSE(runtime.rvaas().freshness_for({switches[0]}).degraded());

  plane.heal_all();
  runtime.settle(60 * kMs);
  EXPECT_EQ(runtime.rvaas().switch_health(dark),
            RvaasController::SwitchHealth::Healthy);
  EXPECT_GE(runtime.rvaas().stats().health_recoveries, 1u);
  EXPECT_FALSE(runtime.rvaas().freshness_for(switches).degraded());
  EXPECT_TRUE(runtime.rvaas().unreachable_switches().empty());
}

// Pins the control-channel timing end to end: the poll deadline, the
// health thresholds, the retry jitter and the control latency all shape the
// fault trace, the resilience counters and the sim time of every health
// transition. Any drift in one of them changes the digest.
TEST(Faults, ControlChannelTimingPinned) {
  FaultPlane plane(0x71e5);
  plane.enable_trace(true);
  ScenarioRuntime runtime(fault_config());
  attach(runtime, plane);
  const auto switches = runtime.network().topology().switches();
  const SwitchId dark = switches[1];

  std::string transitions;
  std::map<SwitchId, RvaasController::SwitchHealth> last;
  for (const SwitchId sw : switches) {
    last[sw] = runtime.rvaas().switch_health(sw);
  }
  const auto sample = [&](sim::Time span) {
    for (sim::Time t = 0; t < span; t += kMs) {
      runtime.settle(kMs);
      for (const SwitchId sw : switches) {
        const auto health = runtime.rvaas().switch_health(sw);
        if (health == last[sw]) continue;
        last[sw] = health;
        transitions += std::to_string(runtime.loop().now()) + " " +
                       std::to_string(sw.value) + " " +
                       std::to_string(static_cast<int>(health)) + "\n";
      }
    }
  };

  plane.set_fault(dark, FaultDirection::ToSwitch, blackhole());
  plane.set_fault(dark, FaultDirection::FromSwitch, blackhole());
  sample(60 * kMs);
  plane.heal_all();
  sample(60 * kMs);

  const auto& s = runtime.rvaas().stats();
  std::string counters;
  for (const std::uint64_t v :
       {s.poll_deadline_misses, s.poll_retries, s.polls_gated,
        s.stale_polls_discarded, s.degraded_transitions,
        s.unreachable_transitions, s.health_recoveries,
        s.degraded_notifications}) {
    counters += std::to_string(v) + " ";
  }
  // Sanity: the run did walk the whole machine and back.
  EXPECT_GE(s.unreachable_transitions, 1u);
  EXPECT_GE(s.health_recoveries, 1u);

  const util::Bytes trace = plane.trace_bytes();
  ASSERT_FALSE(trace.empty());
  crypto::Sha256 h;
  h.update(trace).update(counters).update(transitions);
  EXPECT_EQ(util::to_hex(h.finalize()),
            "e90f39efdaed9fc8b3115ee7e81315d120d44b82b37a58fa63236485065ad242")
      << "counters: " << counters << "\ntransitions:\n" << transitions;
}

// --- degraded replies across every query kind -------------------------------

TEST(Faults, DegradedRepliesAcrossAllQueryKinds) {
  FaultPlane plane(3);
  ScenarioRuntime runtime(fault_config());
  attach(runtime, plane);
  const auto& hosts = runtime.hosts();
  const auto switches = runtime.network().topology().switches();

  // Blackhole a transit switch that is NOT the client's access switch: the
  // in-band query path stays alive while the verifier's view of part of the
  // footprint goes stale.
  const SwitchId dark = switches[2];
  plane.set_fault(dark, FaultDirection::ToSwitch, blackhole());
  plane.set_fault(dark, FaultDirection::FromSwitch, blackhole());
  runtime.settle(60 * kMs);
  ASSERT_EQ(runtime.rvaas().switch_health(dark),
            RvaasController::SwitchHealth::Unreachable);

  const QueryKind kinds[] = {
      QueryKind::ReachableEndpoints, QueryKind::ReachingSources,
      QueryKind::Isolation,          QueryKind::Geo,
      QueryKind::PathLength,         QueryKind::Fairness,
      QueryKind::TransferSummary,
  };
  for (const QueryKind kind : kinds) {
    Query query;
    query.kind = kind;
    if (kind == QueryKind::PathLength) query.peer = hosts.back();
    const auto outcome = runtime.query_and_wait(hosts[0], query);
    ASSERT_FALSE(outcome.timed_out) << core::to_string(kind);
    ASSERT_TRUE(outcome.reply.has_value()) << core::to_string(kind);
    const core::QueryReply& reply = *outcome.reply;

    // Every kind's wildcard footprint crosses the dark transit switch, and
    // the reply must say so (fail-stale: honest about its basis).
    EXPECT_TRUE(reply.freshness.degraded()) << core::to_string(kind);
    EXPECT_TRUE(std::find(reply.freshness.unreachable.begin(),
                          reply.freshness.unreachable.end(),
                          dark) != reply.freshness.unreachable.end())
        << core::to_string(kind);

    // Staleness alone does not flip a verdict — fail-stale is opt-in.
    EXPECT_TRUE(core::evaluate_reply(reply, Expectation{}).ok)
        << core::to_string(kind);
    Expectation strict;
    strict.max_staleness = 1;  // 1ns: any degradation breaches the bound
    const Verdict verdict = core::evaluate_reply(reply, strict);
    EXPECT_FALSE(verdict.ok) << core::to_string(kind);
    ASSERT_FALSE(verdict.violations.empty()) << core::to_string(kind);
  }

  // Client-side knob: a max-staleness bound marks the outcome stale.
  runtime.client(hosts[0]).set_max_staleness(1);
  Query query;
  const auto stale_outcome = runtime.query_and_wait(hosts[0], query);
  ASSERT_TRUE(stale_outcome.reply.has_value());
  EXPECT_TRUE(stale_outcome.stale);
  runtime.client(hosts[0]).set_max_staleness(0);

  // After the heal the same query is fresh again.
  plane.heal_all();
  runtime.settle(60 * kMs);
  const auto fresh_outcome = runtime.query_and_wait(hosts[0], query);
  ASSERT_TRUE(fresh_outcome.reply.has_value());
  EXPECT_FALSE(fresh_outcome.reply->freshness.degraded());
  EXPECT_FALSE(fresh_outcome.stale);
}

// --- VerificationDegraded pushes --------------------------------------------

TEST(Faults, SubscriptionsGetVerificationDegradedPush) {
  FaultPlane plane(5);
  ScenarioRuntime runtime(fault_config());
  attach(runtime, plane);
  const auto& hosts = runtime.hosts();
  const auto switches = runtime.network().topology().switches();

  Property property;
  property.kind = QueryKind::ReachableEndpoints;
  property.expect.allowed_endpoints = {hosts[1], hosts[2], hosts[3]};

  std::vector<ClientAgent::MonitorEvent> events;
  runtime.client(hosts[0]).subscribe(
      property, [&events](const ClientAgent::MonitorEvent& event) {
        events.push_back(event);
      });
  runtime.settle(20 * kMs);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].kind, NotificationKind::AllClear);

  const SwitchId dark = switches[2];
  plane.set_fault(dark, FaultDirection::ToSwitch, blackhole());
  plane.set_fault(dark, FaultDirection::FromSwitch, blackhole());
  runtime.settle(80 * kMs);

  const auto degraded = std::find_if(
      events.begin(), events.end(), [](const ClientAgent::MonitorEvent& e) {
        return e.kind == NotificationKind::VerificationDegraded;
      });
  ASSERT_NE(degraded, events.end());
  EXPECT_TRUE(degraded->signature_ok);
  EXPECT_TRUE(degraded->reply.freshness.degraded());
  EXPECT_TRUE(std::find(degraded->reply.freshness.unreachable.begin(),
                        degraded->reply.freshness.unreachable.end(),
                        dark) != degraded->reply.freshness.unreachable.end());
  EXPECT_GE(runtime.rvaas().stats().degraded_notifications, 1u);

  // Recovery resumes normal monitoring: the subscriber hears all-clear
  // again after the heal.
  const std::size_t before = events.size();
  plane.heal_all();
  runtime.settle(80 * kMs);
  ASSERT_GT(events.size(), before);
  EXPECT_EQ(events.back().kind, NotificationKind::AllClear);
  EXPECT_TRUE(events.back().verdict.ok);
  EXPECT_FALSE(events.back().reply.freshness.degraded());
}

// --- stale-poll generation guard --------------------------------------------

TEST(Faults, StalePollsDiscardedAfterIdentityReset) {
  FaultPlane plane(9);
  ScenarioRuntime runtime(fault_config());
  attach(runtime, plane);
  const auto switches = runtime.network().topology().switches();

  // Stretch every stats reply's flight time so identity resets land while
  // polls are in the air; the generation tag must void those replies.
  FaultSpec slow;
  slow.extra_delay_max = 6 * kMs;
  for (const SwitchId sw : switches) {
    plane.set_fault(sw, FaultDirection::FromSwitch, slow);
  }
  for (int i = 0; i < 40; ++i) {
    runtime.settle(3 * kMs);
    runtime.reset_rvaas_snapshot_identity();
  }
  EXPECT_GE(runtime.rvaas().stats().stale_polls_discarded, 1u);

  // The discards must not wedge the poller: the view converges after heal.
  plane.heal_all();
  runtime.settle(80 * kMs);
  EXPECT_FALSE(runtime.rvaas().freshness_for(switches).degraded());
}

// --- stop() leaves the loop safe --------------------------------------------

TEST(Faults, ControllerStopCancelsTimersBeforeLoopDrains) {
  sim::EventLoop loop;
  GeneratedTopology generated = linear(3);
  util::Rng rng(99);
  enclave::AttestationService ias(rng);
  sdn::Network net(loop, generated.topo);

  RvaasConfig config;
  config.polling = core::PollingMode::Fixed;
  config.poll_period = 20 * kMs;
  config.enable_link_prober = true;
  config.reverify_period = 30 * kMs;
  auto rvaas = std::make_unique<RvaasController>(sdn::ControllerId(2), net,
                                                 ias, config, rng.fork());
  net.authorize_controller_key(rvaas->channel_key().id());
  rvaas->bootstrap();

  // Run past several poll rounds, stopping at a quiescent instant (between
  // rounds, past the round-trip) so no delivery still references the
  // controller — stop()'s documented contract.
  loop.run_until(loop.now() + 51 * kMs);
  EXPECT_GE(rvaas->stats().polls_sent, 2u);

  rvaas->stop();
  rvaas->stop();  // idempotent
  rvaas.reset();  // destructor also stops — must not double-free timers

  // The loop must hold no callback that touches the dead controller.
  loop.run_until(loop.now() + 200 * kMs);
}

// --- frozen health machine: the honesty oracle catches it -------------------

// Deliberate fault-tolerance bug: freeze the health machine so a blackholed
// switch keeps reading Healthy while its view goes stale (fresh-and-wrong).
// The fuzzer's degraded-honesty clause must catch it within a few schedules
// and shrink the repro to a handful of steps; the same repro must be green
// once the machine thaws.
TEST(Faults, FrozenHealthMachineCaughtAndShrunk) {
  struct Thaw {
    ~Thaw() { RvaasController::test_fault_freeze_health(false); }
  } thaw;
  RvaasController::test_fault_freeze_health(true);

  std::optional<fuzz::Schedule> failing;
  fuzz::FuzzFailure failure;
  for (int i = 0; i < 60 && !failing; ++i) {
    const fuzz::Schedule schedule =
        fuzz::generate_schedule(770000 + static_cast<std::uint64_t>(i),
                                fuzz::kMaxGridSizeCode,
                                /*include_faults=*/true);
    const fuzz::FuzzReport report = fuzz::run_schedule(schedule);
    if (report.failure) {
      failing = schedule;
      failure = *report.failure;
    }
  }
  ASSERT_TRUE(failing.has_value())
      << "no schedule tripped an oracle against the frozen health machine";
  EXPECT_EQ(failure.oracle, "fault-honesty") << failure.detail;

  const auto shrunk = fuzz::shrink(*failing);
  ASSERT_TRUE(shrunk.has_value());
  EXPECT_LE(shrunk->schedule.steps.size(), 10u)
      << shrunk->schedule.repro();
  EXPECT_EQ(shrunk->failure.oracle, "fault-honesty") << shrunk->failure.detail;

  // The minimal repro replays to the same failure while frozen...
  const auto parsed = fuzz::parse_repro(shrunk->schedule.repro());
  ASSERT_TRUE(parsed.has_value());
  const fuzz::FuzzReport frozen = fuzz::run_schedule(*parsed);
  ASSERT_TRUE(frozen.failure.has_value());
  EXPECT_EQ(frozen.failure->oracle, "fault-honesty");

  // ...and is green once the real health machine is back.
  RvaasController::test_fault_freeze_health(false);
  const fuzz::FuzzReport healthy = fuzz::run_schedule(*parsed);
  EXPECT_FALSE(healthy.failure.has_value())
      << healthy.failure->oracle << ": " << healthy.failure->detail;
}

}  // namespace
}  // namespace rvaas::workload
