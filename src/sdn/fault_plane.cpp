#include "sdn/fault_plane.hpp"

#include <algorithm>

namespace rvaas::sdn {

void FaultPlane::set_fault(SwitchId sw, FaultDirection dir,
                           const FaultSpec& spec) {
  faults_[sw].spec[static_cast<std::size_t>(dir)] = spec;
}

void FaultPlane::partition(SwitchId sw, sim::Time until) {
  auto& f = faults_[sw];
  f.partition_until = std::max(f.partition_until, until);
}

void FaultPlane::crash_agent(SwitchId sw) {
  ++faults_[sw].agent_generation;
  ++stats_.crashes;
}

void FaultPlane::heal_all() {
  // Keep agent generations: in-flight replies captured before the heal must
  // still be voided against the generation that was current at send time.
  for (auto& [sw, f] : faults_) {
    f.spec[0] = FaultSpec{};
    f.spec[1] = FaultSpec{};
    f.partition_until = 0;
  }
}

FaultPlane::Delivery FaultPlane::apply(SwitchId sw, FaultDirection dir,
                                       sim::Time now) {
  Delivery d;
  const auto it = faults_.find(sw);
  if (it == faults_.end()) return d;
  const SwitchFaults& f = it->second;
  const FaultSpec& spec = f.spec[static_cast<std::size_t>(dir)];
  const bool in_partition = now < f.partition_until;
  if (!in_partition && !spec.active()) return d;

  ++stats_.decisions;
  if (in_partition) {
    d.drop = true;
  } else {
    // Draw order is fixed (drop, dup, delay) so traces are comparable.
    if (spec.drop_probability > 0.0) {
      d.drop = rng_.bernoulli(spec.drop_probability);
    }
    if (!d.drop && spec.duplicate_probability > 0.0) {
      d.duplicate = rng_.bernoulli(spec.duplicate_probability);
    }
    if (!d.drop && spec.extra_delay_max > 0) {
      d.extra_delay = rng_.below(spec.extra_delay_max + 1);
    }
  }
  if (d.drop) ++stats_.dropped;
  if (d.duplicate) ++stats_.duplicated;
  if (d.extra_delay > 0) ++stats_.delayed;

  if (trace_enabled_) {
    TraceRecord r;
    r.at = now;
    r.sw = sw;
    r.dir = dir;
    r.outcome = d.drop        ? TraceOutcome::Dropped
                : d.duplicate ? TraceOutcome::Duplicated
                              : TraceOutcome::Delivered;
    r.extra_delay = d.extra_delay;
    trace_.push_back(r);
  }
  return d;
}

std::uint64_t FaultPlane::agent_generation(SwitchId sw) const {
  const auto it = faults_.find(sw);
  return it == faults_.end() ? 0 : it->second.agent_generation;
}

bool FaultPlane::faulted(SwitchId sw, sim::Time now) const {
  const auto it = faults_.find(sw);
  if (it == faults_.end()) return false;
  return now < it->second.partition_until || it->second.spec[0].active() ||
         it->second.spec[1].active();
}

bool FaultPlane::partitioned(SwitchId sw, sim::Time now) const {
  const auto it = faults_.find(sw);
  return it != faults_.end() && now < it->second.partition_until;
}

util::Bytes FaultPlane::trace_bytes() const {
  util::ByteWriter w;
  w.put_u32(static_cast<std::uint32_t>(trace_.size()));
  for (const TraceRecord& r : trace_) {
    w.put_u64(r.at);
    w.put_u32(r.sw.value);
    w.put_u8(static_cast<std::uint8_t>(r.dir));
    w.put_u8(static_cast<std::uint8_t>(r.outcome));
    w.put_u64(r.extra_delay);
  }
  return w.take();
}

}  // namespace rvaas::sdn
