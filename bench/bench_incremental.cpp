// Incremental snapshot→model compilation under churn: on an N-switch
// provider-routed grid, mutate a varying fraction of switch tables per
// iteration and compare verify latency (model compilation + one reachability
// query) between
//   full — cold QueryEngine::model_uncached(), recompiling every switch,
//   incr — the engine's CompiledModelCache, recompiling only dirty switches.
//
// The paper's control loop re-verifies after every monitored change
// (§IV.A); single-switch churn is the common case there, and the
// incremental path must win big on it (target: >=5x model speedup on the
// 50-switch topology).
//
// Flags: --smoke (tiny topology, 1 iteration)   --json FILE (machine output)

#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "rvaas/engine.hpp"
#include "util/stats.hpp"
#include "workload/scenario.hpp"

using namespace rvaas;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point t0) {
  return 1e3 * std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Mutates one switch's table content through the passive monitor path:
/// modifies a random existing entry's cookie (table size stays constant, so
/// iterations stay comparable), or adds an entry to an empty table.
void churn_one(core::SnapshotManager& snap, sdn::SwitchId sw, util::Rng& rng,
               std::uint64_t& next_id) {
  const auto table = snap.table(sw);
  if (table.empty()) {
    sdn::FlowEntry e;
    e.id = sdn::FlowEntryId(next_id++);
    e.priority = 1;
    e.actions = {sdn::output(sdn::PortNo(0))};
    snap.apply_update({sw, sdn::FlowUpdateKind::Added, e}, 0);
    return;
  }
  sdn::FlowEntry e = table[rng.below(table.size())];
  e.cookie = rng.next_u64();
  snap.apply_update({sw, sdn::FlowUpdateKind::Modified, e}, 0);
}

}  // namespace

int main(int argc, char** argv) {
  const util::BenchArgs args = util::BenchArgs::parse(argc, argv);

  workload::ScenarioConfig config;
  config.generated = args.smoke ? workload::grid(2, 2)   // 4 switches
                                : workload::grid(10, 5); // 50 switches
  config.tenant_count = 2;
  config.seed = 23;
  workload::ScenarioRuntime runtime(std::move(config));
  runtime.settle();

  const sdn::Topology& topo = runtime.network().topology();
  const std::size_t n_switches = topo.switch_count();
  const int iters = args.smoke ? 1 : 15;

  // Mirror the provider-routed configuration into a locally owned snapshot
  // we can churn directly.
  core::SnapshotManager snap;
  for (const auto& [sw, entries] : runtime.rvaas().snapshot().table_dump()) {
    for (const sdn::FlowEntry& e : entries) {
      snap.apply_update({sw, sdn::FlowUpdateKind::Added, e}, 0);
    }
  }

  core::QueryEngine engine(topo, core::EngineConfig{});
  core::QueryEngine::EvalContext ctx;
  ctx.from = topo.host_ports(runtime.hosts().front()).front();
  core::Query query;
  query.kind = core::QueryKind::ReachableEndpoints;
  query.constraint =
      sdn::Match().exact(sdn::Field::IpProto, 6).exact(sdn::Field::L4Dst, 443);

  // Warm the cache (and both query paths) before measuring, and pin
  // incremental == full once up front.
  (void)engine.model_uncached(snap);
  if (!(engine.model(snap).transfer() ==
        engine.model_uncached(snap).transfer())) {
    std::fprintf(stderr, "FATAL: incremental model differs from cold model\n");
    return 1;
  }

  std::printf("incremental vs full model compilation under churn — "
              "%zu-switch grid, %zu snapshot entries, %d iterations/row\n\n",
              n_switches, snap.entry_count(), iters);

  // Churn levels: 1 switch (the paper's steady-state case), then growing
  // fractions up to a full-network reconfiguration.
  std::vector<std::size_t> levels{1};
  for (const double frac : {0.1, 0.5, 1.0}) {
    const auto k = static_cast<std::size_t>(
        static_cast<double>(n_switches) * frac + 0.5);
    if (k > 1 && k <= n_switches) levels.push_back(k);
  }

  util::Table table({"churn-switches", "churn-pct", "full-model-ms",
                     "incr-model-ms", "model-speedup", "full-verify-ms",
                     "incr-verify-ms", "verify-speedup"});

  util::Rng rng(2016);
  const auto switches = topo.switches();
  std::uint64_t next_id = 1 << 20;
  double single_switch_model_speedup = 0.0;

  for (const std::size_t k : levels) {
    util::Samples full_model, incr_model, full_total, incr_total;
    for (int it = 0; it < iters; ++it) {
      // Dirty k distinct switches.
      auto picks = switches;
      rng.shuffle(picks);
      for (std::size_t i = 0; i < k; ++i) {
        churn_one(snap, picks[i], rng, next_id);
      }

      {  // Full recompilation baseline.
        const auto t0 = Clock::now();
        const hsa::NetworkModel model = engine.model_uncached(snap);
        const double model_ms = ms_since(t0);
        (void)engine.answer(model, snap, query, ctx);
        full_model.add(model_ms);
        full_total.add(ms_since(t0));
      }
      {  // Incremental path (cache was warmed before the loop).
        const auto t0 = Clock::now();
        const hsa::NetworkModel model = engine.model(snap);
        const double model_ms = ms_since(t0);
        (void)engine.answer(model, snap, query, ctx);
        incr_model.add(model_ms);
        incr_total.add(ms_since(t0));
      }
    }

    const double model_speedup = full_model.mean() / incr_model.mean();
    const double verify_speedup = full_total.mean() / incr_total.mean();
    if (k == 1) single_switch_model_speedup = model_speedup;
    table.add_row({std::to_string(k),
                   util::Table::fmt(100.0 * static_cast<double>(k) /
                                        static_cast<double>(n_switches), 0),
                   util::Table::fmt(full_model.mean(), 3),
                   util::Table::fmt(incr_model.mean(), 3),
                   util::Table::fmt(model_speedup, 1) + "x",
                   util::Table::fmt(full_total.mean(), 3),
                   util::Table::fmt(incr_total.mean(), 3),
                   util::Table::fmt(verify_speedup, 1) + "x"});
  }
  table.print();

  const auto stats = engine.cache_stats();
  util::Table cache({"lookups", "full-rebuilds", "clean-hits",
                     "switch-recompiles", "switch-hits", "switch-hit-rate"});
  cache.add_row({std::to_string(stats.lookups),
                 std::to_string(stats.full_rebuilds),
                 std::to_string(stats.clean_hits),
                 std::to_string(stats.switch_recompiles),
                 std::to_string(stats.switch_hits),
                 util::Table::fmt(100.0 * stats.switch_hit_rate(), 1) + "%"});
  std::puts("\ncache counters over the whole run:");
  cache.print();

  std::printf("\nsingle-switch churn: incremental model compilation is "
              "%.1fx faster than full recompilation (target >= 5x).\n",
              single_switch_model_speedup);

  if (!args.json.empty()) {
    if (!util::write_json_tables(args.json,
                                 {{"incremental", &table}, {"cache", &cache}})) {
      return 1;
    }
    std::printf("JSON written to %s\n", args.json.c_str());
  }

  const bool ok = args.smoke || single_switch_model_speedup >= 5.0;
  if (!ok) std::puts("FAIL: single-switch speedup below 5x");
  return ok ? 0 : 1;
}
