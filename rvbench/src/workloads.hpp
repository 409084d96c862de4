#pragma once
// The three workloads and what every run of one produces.
//
// End-to-end metrics carry the same names on every workload (the operation
// each workload times is listed in README.md):
//   setup_s      median of kSetups full set-ups (world, server, connects,
//                warm-up)
//   peak_rss_mb  peak resident set size
//   ops_per_s    verified operations per second
//   op_p50_ms / op_tail_ms    latency of the workload's primary operation
//   aux_p50_ms / aux_tail_ms  latency of its secondary operation
// A tail is the highest of p99/p95/p90/... with ten samples beyond it. The
// aux figures and the tails are printed but not part of the result JSON
// (see main.cpp).

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "measure.hpp"
#include "trace.hpp"

namespace rvbench {

/// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 3;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct RunOutput {
  Errors errors;
  /// End-to-end metrics of the untraced phase (the --trace 0 result).
  Report e2e;
  /// The same metrics measured with tracing on (traced runs only).
  Report e2e_traced;
  /// Per-layer metrics (traced runs only).
  Report layers;
  Tracer tracer;
};

/// Timed set-up stages, in seconds.
struct SetupTimes {
  double world_s = 0;
  double connect_s = 0;
  double warm_s = 0;
  double total() const { return world_s + connect_s + warm_s; }
};

/// Reports setup_s and setup.* (medians over the set-ups of one run).
void report_setup(const std::vector<SetupTimes>& setups, RunOutput& out);

/// A traced run measures seconds/2 untraced, then seconds/2 traced, on the
/// same world; an untraced run measures the full time.
double untraced_seconds(const RunConfig& config);

void run_wire_query(const RunConfig& config, RunOutput& out);
void run_wire_churn(const RunConfig& config, RunOutput& out);
void run_fed_walk(const RunConfig& config, RunOutput& out);

}  // namespace rvbench
