#pragma once
// Measurement plumbing shared by every workload: clocks, the percentile
// rule, failure accounting, the metric report and the host record.

#include <sched.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace rvbench {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point from, Clock::time_point to);
double us_between(Clock::time_point from, Clock::time_point to);
double seconds_since(Clock::time_point from);

/// A percentile is only reported when at least this many samples lie beyond
/// its rank; below that the tail is noise, not a measurement.
inline constexpr std::size_t kMinBeyond = 10;

/// Nearest-rank percentile `p` (0 < p < 100) of `values`, or nullopt when
/// fewer than kMinBeyond samples lie beyond the chosen rank.
std::optional<double> checked_percentile(std::vector<double> values, double p);

/// The highest of {99, 95, 90, 75, 50} that checked_percentile resolves.
struct Tail {
  double p = 0;
  double value = 0;
};
std::optional<Tail> resolvable_tail(const std::vector<double>& values);

/// Samples of one timing (or ratio). Not thread-safe; merge per-thread
/// series with append().
struct Series {
  std::vector<double> values;

  void add(double v) { values.push_back(v); }
  void append(const Series& other);
  std::size_t count() const { return values.size(); }
  /// 0 when empty (a layer the workload never exercised).
  double median() const;
  double mean() const;
};

/// Failure accounting behind `attempted`, `failed` and error_rate. Every
/// timed operation is attempted once; a failed check records why.
/// Thread-safe.
class Errors {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& why);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// The first few failure reasons (the rest are only counted).
  std::vector<std::string> reasons() const;

 private:
  std::atomic<std::uint64_t> attempted_{0};
  std::atomic<std::uint64_t> failed_{0};
  mutable std::mutex mu_;
  std::vector<std::string> reasons_;
};

struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: the machine metrics of the final JSON line plus
/// human-readable lines printed above it.
class Report {
 public:
  /// A metric of the final JSON line (end-to-end or per-layer by mode).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A timing printed by name with its percentile and sample count; when
  /// `tail_name` is set, the tail is also emitted as a machine metric.
  void timing(const std::string& label, const Series& s,
              const std::string& p50_name, const std::string& tail_name);
  /// A human-readable line (the named metrics of the issue, tables, ...).
  void line(const std::string& text);

  const std::map<std::string, Metric>& metrics() const { return metrics_; }
  const std::vector<std::string>& lines() const { return lines_; }

 private:
  std::map<std::string, Metric> metrics_;
  std::vector<std::string> lines_;
};

/// Prints one named value with unit and sample count in the fixed format
/// every workload uses for its end-to-end figures.
std::string named(const std::string& name, double value,
                  const std::string& unit, std::size_t samples,
                  const std::string& note = "");

/// Moves the calling thread round the CPUs it may run on, one per call to
/// next(), and restores its affinity when destroyed. On a shared host cores
/// differ in speed by tens of percent and a single-threaded workload keeps
/// whichever core it lands on for the whole run; rotating gives every run
/// the same mix of cores.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation();
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void next();

 private:
  std::vector<int> cpus_;
  std::size_t at_ = 0;
  bool restore_ = false;
  cpu_set_t saved_;
};

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

/// Where and how a result was produced (printed with every run).
struct HostRecord {
  std::string git_sha = "none";
  std::string source_digest = "none";
  std::string to_json() const;
};

/// Formats a double with all the digits a measurement has.
std::string num(double v);

}  // namespace rvbench
