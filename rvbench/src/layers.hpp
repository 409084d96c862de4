#pragma once
// Per-layer timings of the stateless codec layers (crypto primitives, the
// in-band envelope codecs, the wire framing), taken by calling their public
// functions on messages the workload actually exchanged, so payload sizes
// match the workload. Run after the traced phase, never during it.

#include <cstdint>
#include <map>

#include "measure.hpp"
#include "rvaas/engine.hpp"
#include "rvaas/inband.hpp"

namespace rvbench {

struct CodecSamples {
  rvaas::core::QueryRequest request;
  rvaas::core::QueryReply reply;
  rvaas::core::Notification notification;
};

/// Writes crypto.{sign,verify,seal,open}_us, inband.*_us and
/// net.frame_codec_ns into `layers`.
void measure_codec_layers(const rvaas::enclave::Enclave& enclave,
                          const CodecSamples& samples, std::uint64_t seed,
                          Report& layers);

/// The per-layer name suffix of a query kind (engine.evaluate_us.<kind>).
const char* kind_suffix(rvaas::core::QueryKind kind);

/// The four query kinds the wire workloads mix, in a fixed order.
inline constexpr rvaas::core::QueryKind kWireKinds[] = {
    rvaas::core::QueryKind::ReachableEndpoints,
    rvaas::core::QueryKind::Isolation, rvaas::core::QueryKind::Geo,
    rvaas::core::QueryKind::TransferSummary};

/// Times QueryEngine on an engine the benchmark owns, against a live
/// snapshot: model() (incremental, so it recompiles what changed since the
/// probe last ran), model_uncached(), and evaluate() of one property per
/// wire kind over `constraint` traffic. The controller's own caches are left
/// untouched. Call run() on the thread that owns the snapshot.
class EngineProbe {
 public:
  EngineProbe(const rvaas::sdn::Topology& topo,
              rvaas::core::EngineConfig config)
      : engine_(topo, config), geo_(topo) {}

  void run(const rvaas::core::SnapshotManager& snap, rvaas::sdn::PortRef from,
           const rvaas::sdn::Match& constraint,
           const rvaas::control::HostAddressing& addressing);

  /// Merges this probe's samples into `into` (several probes, one report).
  void merge_into(EngineProbe& into) const;

  /// engine.model_us, engine.model_uncached_us, engine.l1_reuse,
  /// engine.evaluate_us.<kind> and hsa.reach_steps_per_query (the HSA rule
  /// applications behind the probe's ReachableEndpoints answer).
  void report(Report& layers) const;

 private:
  rvaas::core::QueryEngine engine_;
  rvaas::core::DisclosedGeo geo_;
  Series model_us_, uncached_us_, l1_reuse_, reach_steps_;
  std::map<rvaas::core::QueryKind, Series> evaluate_us_;
};

}  // namespace rvbench
