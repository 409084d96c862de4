#pragma once
// Deterministic fault injection for the simulated control channel.
//
// A FaultPlane sits between Network::ControllerHandle and the switches it
// talks to, and perturbs the *monitoring-plane* messages of one scoped
// controller (the RVaaS verifier): stats request/reply legs, flow-monitor
// update deliveries, and the controller's own flow/meter mods. Per switch
// and per direction it can drop, duplicate and delay messages, open hard
// partition windows, and crash/restart the switch's control agent (voiding
// every in-flight reply captured before the restart).
//
// Scoping rationale: the provider's channel and the in-band client path
// (packet_out / packet_in) are deliberately NOT interposed. Faulting the
// provider would change the data-plane ground truth itself (the fuzzer's
// reference run would diverge for reasons unrelated to verifier
// robustness), and faulting the in-band channel would re-test the query
// suppression detector, which has its own attack class and oracle. What
// this plane isolates is exactly the paper's open question: what does the
// verifier *say* when its own view of a switch can go dark — and the
// answer must be "stale and flagged", never "fresh and wrong".
//
// Determinism: every decision is drawn from a seeded util::Rng, and the
// RNG is consulted ONLY when an active fault spec or partition covers the
// message's switch. An attached-but-idle plane therefore leaves the
// simulation byte-identical to an unattached one, which is what lets the
// fuzzer attach it unconditionally and the convergence oracle compare
// faulted runs against fault-free state. The optional delivery trace
// records every verdict for the determinism tests.

#include <cstdint>
#include <map>
#include <vector>

#include "sdn/types.hpp"
#include "sim/event_loop.hpp"
#include "util/bytes.hpp"
#include "util/rng.hpp"

namespace rvaas::sdn {

/// Which way a control-channel message is travelling.
enum class FaultDirection : std::uint8_t {
  ToSwitch = 0,   ///< controller -> switch (requests, mods)
  FromSwitch = 1  ///< switch -> controller (replies, flow updates)
};

/// Per-switch, per-direction fault knobs. All default to "no fault".
struct FaultSpec {
  double drop_probability = 0.0;       ///< in [0, 1]
  double duplicate_probability = 0.0;  ///< in [0, 1]; second copy re-delayed
  sim::Time extra_delay_max = 0;       ///< uniform extra delay in [0, max]

  bool active() const {
    return drop_probability > 0.0 || duplicate_probability > 0.0 ||
           extra_delay_max > 0;
  }
};

class FaultPlane {
 public:
  explicit FaultPlane(std::uint64_t seed) : rng_(seed) {}

  /// Restricts the plane to one controller's channel. Messages of any other
  /// controller pass through untouched (and never consult the RNG).
  void set_scope(ControllerId id) { scope_ = id; }
  bool scoped_to(ControllerId id) const { return scope_ == id; }

  // --- fault configuration ---

  void set_fault(SwitchId sw, FaultDirection dir, const FaultSpec& spec);
  /// Hard partition: both directions drop every message until `until`
  /// (absolute simulated time). Re-partitioning extends the window.
  void partition(SwitchId sw, sim::Time until);
  /// Crash + instant restart of the switch's control agent: every reply
  /// still in flight (captured under the old agent generation) is voided at
  /// delivery time. Standing monitor subscriptions survive the restart.
  void crash_agent(SwitchId sw);
  /// Clears every spec and partition window. Agent generations are NOT
  /// rolled back (a crash is an instantaneous past event, not a state).
  void heal_all();

  // --- delivery interposition (called by Network) ---

  /// The plane's verdict on one message send.
  struct Delivery {
    bool drop = false;
    bool duplicate = false;
    sim::Time extra_delay = 0;
  };

  /// Decides the fate of a message to/from `sw` at time `now`. Consults the
  /// RNG only when a spec or partition covers (sw, dir), so an idle plane
  /// is behaviourally invisible.
  Delivery apply(SwitchId sw, FaultDirection dir, sim::Time now);

  /// Monotonic restart counter of the switch's control agent; capture at
  /// send, compare at delivery, void the reply on mismatch.
  std::uint64_t agent_generation(SwitchId sw) const;

  /// True if any spec or unexpired partition covers the switch.
  bool faulted(SwitchId sw, sim::Time now) const;
  /// True while an unexpired partition window covers the switch.
  bool partitioned(SwitchId sw, sim::Time now) const;

  // --- determinism trace ---

  enum class TraceOutcome : std::uint8_t {
    Delivered = 0,
    Dropped = 1,
    Duplicated = 2  ///< delivered + one extra copy
  };
  struct TraceRecord {
    sim::Time at = 0;
    SwitchId sw{};
    FaultDirection dir = FaultDirection::ToSwitch;
    TraceOutcome outcome = TraceOutcome::Delivered;
    sim::Time extra_delay = 0;
  };

  void enable_trace(bool on) { trace_enabled_ = on; }
  const std::vector<TraceRecord>& trace() const { return trace_; }
  /// Serialized trace for byte-identical comparison across runs.
  util::Bytes trace_bytes() const;

  struct Stats {
    std::uint64_t decisions = 0;  ///< apply() calls with a covering fault
    std::uint64_t dropped = 0;
    std::uint64_t duplicated = 0;
    std::uint64_t delayed = 0;
    std::uint64_t crashes = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct SwitchFaults {
    FaultSpec spec[2];           ///< indexed by FaultDirection
    sim::Time partition_until = 0;
    std::uint64_t agent_generation = 0;
  };

  ControllerId scope_{};
  util::Rng rng_;
  std::map<SwitchId, SwitchFaults> faults_;
  bool trace_enabled_ = false;
  std::vector<TraceRecord> trace_;
  Stats stats_;
};

}  // namespace rvaas::sdn
