// rvbench: the end-to-end RVaaS benchmark (see README.md).
//
//   rvbench --workload wire-query|wire-churn|fed-walk --seed N --seconds S
//           --trace 0|1 [--git-sha SHA] [--source-digest D] [--trace-dir DIR]
//   rvbench --selftest
//
// Prints the host record, every end-to-end metric by name with its unit and
// sample count, and, with --trace 1, the traced run's end-to-end figures,
// the tracing overhead, a per-request self-time table and the per-layer
// metrics. The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer ones
// (--trace 1). Exits 1 when any correctness check failed, 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "workloads.hpp"

namespace rvbench {

int run_selftests();

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// The gated end-to-end metrics. The secondary operation's median and both
/// tails (aux_p50_ms, op_tail_ms, aux_tail_ms) are printed with every run
/// but not gated: on a shared host their run-to-run spread exceeds any
/// bound a regression gate could use (README.md).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"ops_per_s", "1/s"},
    {"op_p50_ms", "ms"},
};

/// Every per-layer metric, in BENCHMARK.json order. A workload that does
/// not exercise a layer reports 0 for it.
constexpr MetricSpec kPerLayer[] = {
    {"net.service_wait_us.p50", "us"},
    {"net.service_wait_us.p99", "us"},
    {"net.bytes_per_query", "bytes"},
    {"net.frames_per_flush", "ratio"},
    {"net.bad_frames", "count"},
    {"net.frame_codec_ns", "ns"},
    {"crypto.sign_us", "us"},
    {"crypto.verify_us", "us"},
    {"crypto.seal_us", "us"},
    {"crypto.open_us", "us"},
    {"inband.make_request_us", "us"},
    {"inband.open_request_us", "us"},
    {"inband.make_reply_us", "us"},
    {"inband.open_reply_us", "us"},
    {"inband.make_notify_us", "us"},
    {"inband.open_notify_us", "us"},
    {"controller.crypto_ops_per_query", "ops"},
    {"controller.auth_requests_per_query", "count"},
    {"hsa.reach_steps_per_query", "count"},
    {"controller.exit_us.reachable", "us"},
    {"controller.exit_us.isolation", "us"},
    {"controller.exit_us.geo", "us"},
    {"controller.exit_us.transfer", "us"},
    {"controller.return_us.reachable", "us"},
    {"controller.return_us.isolation", "us"},
    {"controller.return_us.geo", "us"},
    {"controller.return_us.transfer", "us"},
    {"controller.auth_wait_us", "us"},
    {"controller.push_exit_us", "us"},
    {"controller.push_return_us", "us"},
    {"engine.evaluate_us.reachable", "us"},
    {"engine.evaluate_us.isolation", "us"},
    {"engine.evaluate_us.geo", "us"},
    {"engine.evaluate_us.transfer", "us"},
    {"engine.model_us", "us"},
    {"engine.model_uncached_us", "us"},
    {"engine.l1_reuse", "ratio"},
    {"engine.l2_hit_rate", "ratio"},
    {"engine.l2_evictions", "count"},
    {"monitor.wakeups_per_sweep", "count"},
    {"monitor.skip_ratio", "ratio"},
    {"monitor.sweeps_per_churn", "count"},
    {"monitor.pushes_per_churn", "count"},
    {"snapshot.entries", "count"},
    {"snapshot.bytes", "bytes"},
    {"fed.policy_walk_us", "us"},
    {"fed.reach_walk_us", "us"},
    {"fed.after_write_walk_us", "us"},
    {"fed.subqueries_per_walk", "count"},
    {"fed.walk_depth", "count"},
    {"setup.world_s", "s"},
    {"setup.connect_s", "s"},
    {"setup.warm_s", "s"},
    {"client.gen_late_ms", "ms"},
};

struct Args {
  RunConfig run;
  HostRecord host;
  std::string trace_dir = ".";
  bool selftest = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "rvbench: %s\nusage: rvbench --workload wire-query|wire-churn|"
               "fed-walk --seed N --seconds S --trace 0|1\n"
               "       rvbench --selftest\n",
               why.c_str());
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args.selftest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.run.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.run.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.run.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.run.trace = std::stoi(value) != 0;
      } else if (flag == "--git-sha") {
        args.host.git_sha = value;
      } else if (flag == "--source-digest") {
        args.host.source_digest = value;
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag);
    }
  }
  if (!args.selftest && !have_workload) {
    usage("--workload is required");
  }
  if (args.run.seconds <= 0) usage("--seconds must be positive");
  return args;
}

void print_lines(const Report& report) {
  for (const std::string& l : report.lines()) std::printf("%s\n", l.c_str());
}

/// Traced minus untraced, for every end-to-end figure both phases report.
void print_overhead(const Report& plain, const Report& traced) {
  std::printf("tracing overhead (traced - untraced end-to-end):\n");
  for (const auto& [name, a] : plain.metrics()) {
    const auto b = traced.metrics().find(name);
    if (b == traced.metrics().end()) continue;
    const double delta = b->second.value - a.value;
    const double pct = a.value != 0 ? 100.0 * delta / a.value : 0.0;
    std::printf("  %-12s %+.4f %s (%+.1f%%)\n", name.c_str(), delta,
                a.unit.c_str(), pct);
  }
}

void print_self_times(const Tracer& tracer) {
  std::printf("per-request self time (traced phase):\n");
  std::printf("  %-24s %8s %12s %16s %14s\n", "span", "count", "median_us",
              "median_self_us", "total_self_ms");
  for (const Tracer::SelfTime& s : tracer.self_times()) {
    std::printf("  %-24s %8zu %12.1f %16.1f %14.1f\n", s.name.c_str(), s.count,
                s.median_us, s.median_self_us, s.total_self_ms);
  }
}

std::string result_json(const RunOutput& out, const Report& machine) {
  std::string metrics;
  for (const auto& [name, m] : machine.metrics()) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + name + "\": {\"value\": " + num(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  const bool correct = out.errors.failed() == 0;
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(out.errors.attempted()) +
         ", \"failed\": " + std::to_string(out.errors.failed()) +
         ", \"metrics\": {" + metrics + "}}";
}

/// Keeps exactly the listed metrics, reporting 0 for any a workload did
/// not produce.
Report only(const Report& from, const MetricSpec* begin,
              const MetricSpec* end) {
  Report out;
  for (const MetricSpec* s = begin; s != end; ++s) {
    const auto it = from.metrics().find(s->name);
    out.metric(s->name, it == from.metrics().end() ? 0 : it->second.value,
               s->unit);
  }
  return out;
}

}  // namespace

void report_setup(const std::vector<SetupTimes>& setups, RunOutput& out) {
  Series total, world, connect, warm;
  for (const SetupTimes& t : setups) {
    total.add(t.total());
    world.add(t.world_s);
    connect.add(t.connect_s);
    warm.add(t.warm_s);
  }
  for (Report* r : {&out.e2e, &out.e2e_traced}) {
    r->metric("setup_s", total.median(), "s");
    r->line(named("setup_s", total.median(), "s", total.count(),
                  "median of set-ups"));
  }
  out.layers.metric("setup.world_s", world.median(), "s");
  out.layers.metric("setup.connect_s", connect.median(), "s");
  out.layers.metric("setup.warm_s", warm.median(), "s");
}

double untraced_seconds(const RunConfig& config) {
  return config.trace ? config.seconds / 2 : config.seconds;
}

}  // namespace rvbench

int main(int argc, char** argv) {
  using namespace rvbench;
  const Args args = parse(argc, argv);
  if (args.selftest) return run_selftests() == 0 ? 0 : 1;

  const RunConfig& config = args.run;
  std::printf("rvbench workload=%s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("host %s\n", args.host.to_json().c_str());
  std::fflush(stdout);

  RunOutput out;
  try {
    if (config.workload == "wire-query") {
      run_wire_query(config, out);
    } else if (config.workload == "wire-churn") {
      run_wire_churn(config, out);
    } else if (config.workload == "fed-walk") {
      run_fed_walk(config, out);
    } else {
      usage("unknown workload " + config.workload);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rvbench: %s\n", e.what());
    return 1;
  }
  out.e2e.metric("peak_rss_mb", peak_rss_mb(), "MiB");
  out.e2e.line(named("peak_rss_mb", peak_rss_mb(), "MiB", 1));

  std::printf("end-to-end (untraced, %g s):\n", untraced_seconds(config));
  print_lines(out.e2e);
  const double error_rate =
      out.errors.attempted() == 0
          ? 0
          : static_cast<double>(out.errors.failed()) /
                static_cast<double>(out.errors.attempted());
  std::printf("%s\n", named("error_rate", error_rate, "failed/attempted",
                            out.errors.attempted())
                          .c_str());
  for (const std::string& why : out.errors.reasons()) {
    std::printf("  FAILED: %s\n", why.c_str());
  }

  Report machine;
  if (config.trace) {
    std::printf("end-to-end (traced, %g s):\n",
                config.seconds - untraced_seconds(config));
    print_lines(out.e2e_traced);
    print_overhead(out.e2e, out.e2e_traced);
    print_self_times(out.tracer);
    machine = only(out.layers, std::begin(kPerLayer), std::end(kPerLayer));
    std::printf("per-layer:\n");
    for (const auto& s : kPerLayer) {
      const Metric& m = machine.metrics().at(s.name);
      std::printf("  %s = %s %s\n", s.name, num(m.value).c_str(), s.unit);
    }
    const std::string path = args.trace_dir + "/rvbench-trace-" +
                             config.workload + "-" +
                             std::to_string(config.seed) + ".jsonl";
    if (out.tracer.dump(path)) {
      std::printf("spans written to %s (%zu spans)\n", path.c_str(),
                  out.tracer.spans().size());
    } else {
      std::printf("could not write spans to %s\n", path.c_str());
    }
  } else {
    machine = only(out.e2e, std::begin(kEndToEnd), std::end(kEndToEnd));
  }
  std::printf("%s\n", result_json(out, machine).c_str());
  return out.errors.failed() == 0 ? 0 : 1;
}
