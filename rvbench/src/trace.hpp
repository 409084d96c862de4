#pragma once
// In-memory span recorder for the traced run. The benchmark records spans
// around its own calls into each layer's public entry points (and around
// the points where a layer hands work back, seen through the controller's
// WireTransport seam); nothing inside the program is instrumented.
//
// A span has a name, a start, an end and a parent. All spans of one request
// share its id: (host << 32) | seq for wire requests, the churn step for
// pushes, the walk index for federation walks. The parent is named, and is
// resolved to the span of the same request carrying that name when the
// spans are written out.

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "measure.hpp"

namespace rvbench {

struct Span {
  std::uint64_t request = 0;
  const char* name = "";
  const char* parent = nullptr;  ///< nullptr = root of its request
  Clock::time_point start;
  Clock::time_point end;
};

class Tracer {
 public:
  bool enabled() const { return enabled_; }
  /// Turns recording on; call before any thread records.
  void enable() { enabled_ = true; }

  /// Records one finished span; a no-op when tracing is off. Thread-safe.
  void record(std::uint64_t request, const char* name, const char* parent,
              Clock::time_point start, Clock::time_point end);

  std::vector<Span> spans() const;

  /// Writes every span as one JSON object per line (`parent` is the index
  /// of the parent span, -1 for a root). Returns false on I/O failure.
  bool dump(const std::string& path) const;

  /// Per span name: count, median duration and median self time (duration
  /// minus the part of it covered by the span's children).
  struct SelfTime {
    std::string name;
    std::size_t count = 0;
    double median_us = 0;
    double median_self_us = 0;
    double total_self_ms = 0;
  };
  std::vector<SelfTime> self_times() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Self time of `span` given all spans of its request: its duration minus
/// the union of its children's intervals clipped to it.
double self_time_us(const Span& span, const std::vector<const Span*>& request);

}  // namespace rvbench
