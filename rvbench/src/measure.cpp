#include "measure.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

namespace rvbench {

double ms_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

double us_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

double seconds_since(Clock::time_point from) {
  return std::chrono::duration<double>(Clock::now() - from).count();
}

std::optional<double> checked_percentile(std::vector<double> values,
                                         double p) {
  const std::size_t n = values.size();
  if (n == 0 || p <= 0 || p >= 100) return std::nullopt;
  // Nearest rank (1-based): the smallest k with k/n >= p/100.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(n)));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, n);
  if (n - k < kMinBeyond) return std::nullopt;
  std::nth_element(values.begin(), values.begin() + (k - 1), values.end());
  return values[k - 1];
}

std::optional<Tail> resolvable_tail(const std::vector<double>& values) {
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (const auto v = checked_percentile(values, p)) return Tail{p, *v};
  }
  return std::nullopt;
}

void Series::append(const Series& other) {
  values.insert(values.end(), other.values.begin(), other.values.end());
}

double Series::median() const {
  if (values.empty()) return 0;
  std::vector<double> v = values;
  const std::size_t mid = (v.size() - 1) / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  return v[mid];
}

double Series::mean() const {
  if (values.empty()) return 0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

void Errors::fail(const std::string& why) {
  ++failed_;
  std::lock_guard<std::mutex> lock(mu_);
  if (reasons_.size() < 8) reasons_.push_back(why);
}

std::vector<std::string> Errors::reasons() const {
  std::lock_guard<std::mutex> lock(mu_);
  return reasons_;
}

namespace {

/// As named(), for a timing: p50 and the resolvable tail, in ms.
std::vector<std::string> named_timing(const std::string& stem,
                                      const Series& ms) {
  std::vector<std::string> out;
  out.push_back(named(stem + "_p50_ms", ms.median(), "ms", ms.count()));
  if (const auto tail = resolvable_tail(ms.values)) {
    char p[16];
    std::snprintf(p, sizeof p, "p%g", tail->p);
    out.push_back(named(stem + "_p99_ms", tail->value, "ms", ms.count(),
                        std::string("reported at ") + p));
  } else {
    out.push_back("  " + stem + "_p99_ms = unresolved (n=" +
                  std::to_string(ms.count()) + ", fewer than " +
                  std::to_string(kMinBeyond) + " samples beyond any tail)");
  }
  return out;
}

}  // namespace

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::timing(const std::string& label, const Series& s,
                    const std::string& p50_name,
                    const std::string& tail_name) {
  for (std::string& l : named_timing(label, s)) lines_.push_back(std::move(l));
  if (!p50_name.empty()) metric(p50_name, s.median(), "ms");
  if (!tail_name.empty()) {
    const auto tail = resolvable_tail(s.values);
    metric(tail_name, tail ? tail->value : 0, "ms");
  }
}

void Report::line(const std::string& text) { lines_.push_back(text); }

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string named(const std::string& name, double value,
                  const std::string& unit, std::size_t samples,
                  const std::string& note) {
  std::string out = "  " + name + " = " + num(value) + " " + unit +
                    "  (n=" + std::to_string(samples);
  if (!note.empty()) out += ", " + note;
  return out + ")";
}

CoreRotation::CoreRotation() {
  CPU_ZERO(&saved_);
  if (sched_getaffinity(0, sizeof saved_, &saved_) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &saved_)) cpus_.push_back(cpu);
  }
  restore_ = true;
}

CoreRotation::~CoreRotation() {
  if (restore_) sched_setaffinity(0, sizeof saved_, &saved_);
}

void CoreRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[at_++ % cpus_.size()], &set);
  sched_setaffinity(0, sizeof set, &set);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        std::string model = line.substr(colon + 1);
        model.erase(0, model.find_first_not_of(' '));
        return model;
      }
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

}  // namespace

std::string HostRecord::to_json() const {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef RVBENCH_BUILD_TYPE
  const std::string build_type = RVBENCH_BUILD_TYPE;
#else
  const std::string build_type = "unknown";
#endif
  return "{\"nproc\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + json_escape(cpu_model()) + "\", \"compiler\": \"" +
         json_escape(compiler) + "\", \"build_type\": \"" +
         json_escape(build_type) + "\", \"git_sha\": \"" +
         json_escape(git_sha) + "\", \"source_digest\": \"" +
         json_escape(source_digest) + "\"}";
}

}  // namespace rvbench
