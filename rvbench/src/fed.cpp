// The fed-walk workload: federation walks in process on a 16-domain AsWorld,
// single-threaded and closed loop. Sweeps of verify_policy and reachable
// walks, from every transit ingress to a seeded in-cone and a seeded foreign
// destination, are interleaved with seeded attack rounds (route-origin
// hijack or route leak: launch, walk, revert, walk). No sockets and few
// signatures: HSA and the federation walk dominate.

#include <algorithm>
#include <map>
#include <memory>
#include <stdexcept>

#include "attacks/attacks.hpp"
#include "checks.hpp"
#include "layers.hpp"
#include "workload/as_world.hpp"
#include "workloads.hpp"

namespace rvbench {

using namespace rvaas;

namespace {

constexpr std::uint32_t kDomains = 16;
/// The AS graph is the same for every run seed, so seeds vary the walks and
/// attacks over one world and runs compare like with like.
constexpr std::uint64_t kWorldSeed = 7;
/// One attack round after every kWalksPerRound sweep walks.
constexpr std::size_t kWalksPerRound = 10;
/// The walker moves to the next CPU after every slice of this length.
constexpr double kSliceSeconds = 0.1;

sdn::Match dst_tcp(std::uint32_t dst) {
  // TCP keeps the walk space clear of the UDP in-band RVaaS rules.
  return sdn::Match().exact(sdn::Field::IpDst, dst).exact(sdn::Field::IpProto,
                                                          sdn::kIpProtoTcp);
}

/// One sweep destination: a transit ingress and where its traffic goes.
struct Target {
  std::size_t ingress = 0;  ///< index into the transit ingresses
  std::uint32_t dst = 0;
};

struct Baseline {
  std::vector<core::PolicyReportItem> policy;
  std::vector<core::FederatedEndpoint> reach;
};

/// A seeded attack: a hijack of a foreign destination at a transit ingress,
/// or a leak of it from one transit ingress out of another of the same
/// domain. `target` is the sweep target whose baseline the revert restores.
struct AttackSite {
  bool hijack = true;
  std::size_t target = 0;
  std::size_t out = 0;  ///< leak: transit index of the border leaked to
  sdn::HostId sink{};   ///< hijack: local host receiving the traffic
};

struct FedWorld {
  std::unique_ptr<workload::AsWorld> world;
  std::vector<workload::AsWorld::Ingress> transit;
  std::vector<Target> targets;
  std::vector<Baseline> baseline;
  std::vector<AttackSite> sites;

  core::Federation& fed() { return world->federation(); }
  std::size_t domain_of(const Target& t) const {
    return transit[t.ingress].domain;
  }
  core::ProviderId provider_of(const Target& t) const {
    return workload::AsWorld::provider_of(domain_of(t));
  }
  sdn::PortRef port_of(const Target& t) const {
    return transit[t.ingress].port;
  }
};

std::vector<std::size_t> shuffled(std::size_t n, util::Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(
                                rng.uniform_int(0, static_cast<std::int64_t>(i) - 1))]);
  }
  return order;
}

/// Seeded inputs over the fixed world: from every transit ingress, one
/// target per domain (a seeded host of it). A walk's cost depends on the
/// destination domain, not the host, so every seed sweeps the same mix of
/// walk depths. A target outside the ingress domain's customer cone is
/// foreign: it gets a hijack site, and a leak site per other transit
/// ingress of the same domain.
void plan_inputs(FedWorld& fw, util::Rng& rng) {
  workload::AsWorld& world = *fw.world;
  fw.transit = world.transit_ingresses();
  for (std::size_t i = 0; i < fw.transit.size(); ++i) {
    const std::size_t d = fw.transit[i].domain;
    const auto& cone = world.cone_ips(d);
    for (std::size_t x = 0; x < world.domain_count(); ++x) {
      const std::uint32_t dst =
          control::HostAddressing::derive(rng.pick(world.domain_hosts(x))).ip;
      const std::size_t target = fw.targets.size();
      fw.targets.push_back(Target{i, dst});
      if (std::find(cone.begin(), cone.end(), dst) != cone.end()) continue;
      AttackSite hijack;
      hijack.target = target;
      hijack.sink = rng.pick(world.domain_hosts(d));
      fw.sites.push_back(hijack);
      for (std::size_t j = 0; j < fw.transit.size(); ++j) {
        if (j == i || fw.transit[j].domain != d) continue;
        AttackSite leak;
        leak.hijack = false;
        leak.target = target;
        leak.out = j;
        fw.sites.push_back(leak);
      }
    }
  }
  if (fw.sites.empty()) throw std::runtime_error("no attack site in world");
}

/// What one measured phase collects.
struct WalkResult {
  Series walk_ms;         ///< sweep walks, both kinds
  Series after_write_ms;  ///< walks right after an attack launch or revert
  Series policy_us, reach_us;
  Series subqueries, depth;
  std::uint64_t walks = 0;
  std::uint64_t rounds = 0;
  std::uint64_t skipped_launches = 0;
  double elapsed_s = 0;
};

/// The walker: runs sweeps and attack rounds, checking every walk.
class Walker {
 public:
  Walker(FedWorld& fw, util::Rng rng, Errors& errors)
      : fw_(&fw), rng_(std::move(rng)), errors_(&errors) {}

  /// One policy walk and one reach walk toward target `t`. With
  /// `record_baseline`, the results become the baseline instead of being
  /// checked against it.
  void sweep_target(std::size_t t, bool record_baseline, WalkResult* phase,
                    Tracer& tracer) {
    const Target& target = fw_->targets[t];
    const std::uint64_t walk_id = next_walk_++;
    auto t0 = Clock::now();
    const core::PolicyVerification policy = fw_->fed().verify_policy(
        fw_->provider_of(target), fw_->port_of(target), dst_tcp(target.dst));
    auto t1 = Clock::now();
    tracer.record(walk_id, "fed.policy_walk", nullptr, t0, t1);
    if (phase != nullptr) {
      phase->walk_ms.add(ms_between(t0, t1));
      phase->policy_us.add(us_between(t0, t1));
      phase->subqueries.add(policy.subqueries);
      phase->depth.add(policy.max_walk_depth);
    }
    check(check_policy_walk(policy, rvbench::WalkPhase::Baseline,
                            core::PolicyVerdict::Ok,
                            record_baseline ? nullptr
                                            : &fw_->baseline[t].policy));

    const std::uint64_t reach_id = next_walk_++;
    t0 = Clock::now();
    const core::FederatedResult reach = fw_->fed().reachable(
        fw_->provider_of(target), fw_->port_of(target), dst_tcp(target.dst));
    t1 = Clock::now();
    tracer.record(reach_id, "fed.reach_walk", nullptr, t0, t1);
    if (phase != nullptr) {
      phase->walk_ms.add(ms_between(t0, t1));
      phase->reach_us.add(us_between(t0, t1));
      phase->subqueries.add(reach.subqueries);
      phase->walks += 2;
    }
    check(check_reach_walk(reach,
                           record_baseline ? nullptr : &fw_->baseline[t].reach));
    if (record_baseline) {
      fw_->baseline[t] = Baseline{policy.reply.policy_report, reach.endpoints};
    }
  }

  /// Launch, settle, walk (must flag), revert, settle, walk (must be clean
  /// and equal the baseline). With `probes`, times the attacked domain's
  /// engine right after the launch settled.
  void attack_round(WalkResult& phase, Tracer& tracer,
                    std::map<std::size_t, std::unique_ptr<EngineProbe>>* probes) {
    const AttackSite& site = fw_->sites[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(fw_->sites.size()) - 1))];
    const Target& target = fw_->targets[site.target];
    const std::size_t d = fw_->domain_of(target);
    workload::ScenarioRuntime& rt = fw_->world->domain(d);
    std::unique_ptr<attacks::Attack> attack;
    core::PolicyVerdict verdict;
    if (site.hijack) {
      attack = std::make_unique<attacks::RouteOriginHijackAttack>(
          target.dst, fw_->port_of(target), site.sink);
      verdict = core::PolicyVerdict::UnauthorizedOrigin;
    } else {
      attack = std::make_unique<attacks::RouteLeakAttack>(
          fw_->port_of(target), fw_->transit[site.out].port, target.dst);
      verdict = core::PolicyVerdict::RouteLeak;
    }
    const std::uint64_t round_id = (1ull << 63) | phase.rounds;
    const auto r0 = Clock::now();
    if (!attack->launch(rt.provider(), rt.network())) {
      ++phase.skipped_launches;
      return;
    }
    rt.settle();
    tracer.record(round_id, "fed.launch", "fed.attack_round", r0,
                  Clock::now());
    if (probes != nullptr) {
      auto& probe = (*probes)[d];
      if (!probe) {
        probe = std::make_unique<EngineProbe>(rt.network().topology(),
                                              rt.rvaas().engine().config());
      }
      const sdn::HostId host = fw_->world->domain_hosts(d).front();
      probe->run(rt.rvaas().snapshot(),
                 rt.network().topology().host_ports(host).front(),
                 dst_tcp(target.dst), rt.addressing());
    }
    timed_policy_walk(target, rvbench::WalkPhase::Attacked, verdict,
                      nullptr, round_id, phase, tracer);

    const auto v0 = Clock::now();
    attack->revert(rt.provider(), rt.network());
    rt.settle();
    tracer.record(round_id, "fed.revert", "fed.attack_round", v0,
                  Clock::now());
    timed_policy_walk(target, rvbench::WalkPhase::Reverted,
                      core::PolicyVerdict::Ok,
                      &fw_->baseline[site.target].policy, round_id, phase,
                      tracer);
    tracer.record(round_id, "fed.attack_round", nullptr, r0, Clock::now());
    ++phase.rounds;
  }

  /// Sweeps and attack rounds until `seconds` have passed.
  WalkResult run(double seconds, Tracer& tracer,
                 std::map<std::size_t, std::unique_ptr<EngineProbe>>* probes) {
    WalkResult phase;
    const auto start = Clock::now();
    const auto end = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
    std::size_t since_round = 0;
    CoreRotation cores;
    auto slice_end = start;
    while (Clock::now() < end) {
      for (const std::size_t t : shuffled(fw_->targets.size(), rng_)) {
        const auto now = Clock::now();
        if (now >= end) break;
        if (now >= slice_end) {
          cores.next();
          slice_end = now + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(kSliceSeconds));
        }
        sweep_target(t, false, &phase, tracer);
        since_round += 2;
        if (since_round >= kWalksPerRound) {
          attack_round(phase, tracer, probes);
          since_round = 0;
        }
      }
    }
    phase.elapsed_s = seconds_since(start);
    return phase;
  }

 private:
  void check(const std::string& why) {
    errors_->attempt();
    if (!why.empty()) errors_->fail("fed-walk: " + why);
  }

  void timed_policy_walk(const Target& target, rvbench::WalkPhase kind,
                         core::PolicyVerdict verdict,
                         const std::vector<core::PolicyReportItem>* baseline,
                         std::uint64_t round_id, WalkResult& phase,
                         Tracer& tracer) {
    const auto t0 = Clock::now();
    const core::PolicyVerification walk = fw_->fed().verify_policy(
        fw_->provider_of(target), fw_->port_of(target), dst_tcp(target.dst));
    const auto t1 = Clock::now();
    tracer.record(round_id, "fed.after_write_walk", "fed.attack_round", t0,
                  t1);
    phase.after_write_ms.add(ms_between(t0, t1));
    ++phase.walks;
    check(check_policy_walk(walk, kind, verdict, baseline));
  }

  FedWorld* fw_;
  util::Rng rng_;
  Errors* errors_;
  std::uint64_t next_walk_ = 0;
};

void report_phase(const WalkResult& p, Report& e2e) {
  const double wps = p.elapsed_s > 0 ? p.walks / p.elapsed_s : 0;
  e2e.metric("ops_per_s", wps, "1/s");
  e2e.line(named("walks_per_s", wps, "walks/s", p.walks));
  e2e.line(named("attack_rounds", static_cast<double>(p.rounds), "rounds",
                 p.rounds,
                 std::to_string(p.skipped_launches) + " launches skipped"));
  e2e.timing("walk", p.walk_ms, "op_p50_ms", "op_tail_ms");
  e2e.timing("after_write_walk", p.after_write_ms, "aux_p50_ms",
             "aux_tail_ms");
}

core::ReachCache::Stats l2_totals(workload::AsWorld& world) {
  core::ReachCache::Stats total;
  for (std::size_t d = 0; d < world.domain_count(); ++d) {
    const auto s = world.domain(d).rvaas().engine().reach_stats();
    total.lookups += s.lookups;
    total.hits += s.hits;
    total.entries_invalidated += s.entries_invalidated;
  }
  return total;
}

}  // namespace

void run_fed_walk(const RunConfig& config, RunOutput& out) {
  std::vector<SetupTimes> setups;
  std::unique_ptr<FedWorld> fw;
  {
    // Each set-up on the next CPU, like the walker's slices.
    CoreRotation cores;
    for (int i = 0; i < kSetups; ++i) {
      fw.reset();
      cores.next();
      SetupTimes times;
      auto t0 = Clock::now();
      fw = std::make_unique<FedWorld>();
      workload::AsWorldConfig world_config;
      world_config.n_domains = kDomains;
      world_config.seed = kWorldSeed;
      fw->world = std::make_unique<workload::AsWorld>(world_config);
      fw->world->settle_all();
      times.world_s = seconds_since(t0);

      util::Rng rng(config.seed);
      plan_inputs(*fw, rng);
      fw->baseline.resize(fw->targets.size());
      // Warm-up: the first sweep, which also records every baseline.
      t0 = Clock::now();
      Walker warm(*fw, rng.fork(), out.errors);
      for (std::size_t t = 0; t < fw->targets.size(); ++t) {
        warm.sweep_target(t, true, nullptr, out.tracer);
      }
      times.warm_s = seconds_since(t0);
      setups.push_back(times);
    }
  }
  report_setup(setups, out);

  Walker walker(*fw, util::Rng(config.seed * 7919 + 3), out.errors);
  const WalkResult plain =
      walker.run(untraced_seconds(config), out.tracer, nullptr);
  report_phase(plain, out.e2e);

  if (config.trace) {
    out.tracer.enable();
    std::map<std::size_t, std::unique_ptr<EngineProbe>> probes;
    const core::ReachCache::Stats l2_before = l2_totals(*fw->world);
    const WalkResult traced = walker.run(
        config.seconds - untraced_seconds(config), out.tracer, &probes);
    const core::ReachCache::Stats l2_after = l2_totals(*fw->world);
    report_phase(traced, out.e2e_traced);

    Report& layers = out.layers;
    layers.metric("fed.policy_walk_us", traced.policy_us.median(), "us");
    layers.metric("fed.reach_walk_us", traced.reach_us.median(), "us");
    layers.metric("fed.after_write_walk_us",
                  traced.after_write_ms.median() * 1000.0, "us");
    layers.metric("fed.subqueries_per_walk", traced.subqueries.mean(),
                  "count");
    layers.metric("fed.walk_depth", traced.depth.mean(), "count");
    const double lookups =
        static_cast<double>(l2_after.lookups - l2_before.lookups);
    layers.metric("engine.l2_hit_rate",
                  lookups > 0 ? static_cast<double>(l2_after.hits -
                                                    l2_before.hits) /
                                    lookups
                              : 0,
                  "ratio");
    layers.metric("engine.l2_evictions",
                  static_cast<double>(l2_after.entries_invalidated -
                                      l2_before.entries_invalidated),
                  "count");
    if (!probes.empty()) {
      EngineProbe& merged = *probes.begin()->second;
      for (auto it = std::next(probes.begin()); it != probes.end(); ++it) {
        it->second->merge_into(merged);
      }
      merged.report(layers);
    }
    std::size_t entries = 0, bytes = 0;
    for (std::size_t d = 0; d < fw->world->domain_count(); ++d) {
      const auto& snap = fw->world->domain(d).rvaas().snapshot();
      entries += snap.entry_count();
      bytes += snap.approx_memory_bytes();
    }
    layers.metric("snapshot.entries", static_cast<double>(entries), "count");
    layers.metric("snapshot.bytes", static_cast<double>(bytes), "bytes");

    // Codec layers at this workload's sizes: a recorded policy reply.
    const Target& target = fw->targets.front();
    CodecSamples samples;
    samples.request.request_id = 1;
    samples.request.query.kind = core::QueryKind::PolicyCompliance;
    samples.request.query.constraint = dst_tcp(target.dst);
    samples.reply = fw->fed()
                        .verify_policy(fw->provider_of(target),
                                       fw->port_of(target), dst_tcp(target.dst))
                        .reply;
    samples.notification.subscription_id = 1;
    samples.notification.sequence = 1;
    samples.notification.reply = samples.reply;
    measure_codec_layers(fw->world->domain(0).rvaas().enclave(), samples,
                         config.seed, layers);
  }
}

}  // namespace rvbench
