#pragma once
// ScenarioRuntime: wires a full experiment — topology, provider controller
// with tenant routing, RVaaS controller inside its enclave, client agents
// with attestation-established trust — on one event loop. Used by the
// integration tests, examples and benchmark harnesses.

#include <memory>

#include "attacks/attacks.hpp"
#include "rvaas/client.hpp"
#include "rvaas/controller.hpp"
#include "workload/topo_gen.hpp"

namespace rvaas::workload {

struct ScenarioConfig {
  GeneratedTopology generated;
  /// Hosts are split round-robin over this many tenants (VLANs 100+i).
  std::size_t tenant_count = 1;
  core::RvaasConfig rvaas;
  std::uint64_t seed = 1;
  /// Install a DisclosedGeo provider (truth) by default.
  bool with_geo = true;
  /// Hosts reserved for wire (TCP) sessions: no in-process agent is created
  /// or enrolled for them — the wire front-end (src/net) enrolls the
  /// connecting client's keys instead. One rng fork is still burned per
  /// reserved host, so every other agent draws exactly the keys it would in
  /// an all-in-process run (the wire byte-identity tests rely on this).
  std::vector<sdn::HostId> wire_hosts;
  /// Per-tenant meter configs (index into tenants list).
  std::map<std::size_t, sdn::MeterConfig> tenant_meters;
};

class ScenarioRuntime {
 public:
  explicit ScenarioRuntime(ScenarioConfig config);

  ScenarioRuntime(const ScenarioRuntime&) = delete;
  ScenarioRuntime& operator=(const ScenarioRuntime&) = delete;

  sim::EventLoop& loop() { return loop_; }
  sdn::Network& network() { return *net_; }
  control::ProviderController& provider() { return *provider_; }
  core::RvaasController& rvaas() { return *rvaas_; }
  const enclave::AttestationService& ias() const { return *ias_; }
  core::ClientAgent& client(sdn::HostId host);
  const std::vector<sdn::HostId>& hosts() const { return config_.generated.hosts; }
  const control::HostAddressing& addressing() const {
    return provider_->addressing();
  }

  /// Runs the loop for `d` of simulated time (pollers keep the loop busy, so
  /// callers must always bound execution).
  void settle(sim::Time d = 10 * sim::kMillisecond) {
    loop_.run_until(loop_.now() + d);
  }

  /// Sends a query from a client and runs the loop until the outcome lands.
  core::ClientAgent::Outcome query_and_wait(
      sdn::HostId client_host, const core::Query& query,
      sim::Time timeout = 50 * sim::kMillisecond);

  struct TimedOutcome {
    core::ClientAgent::Outcome outcome;
    sim::Time latency = 0;  ///< simulated request-to-outcome time
  };
  /// As query_and_wait, but also reports the simulated latency until the
  /// outcome (reply or timeout) fired.
  TimedOutcome query_timed(sdn::HostId client_host, const core::Query& query,
                           sim::Time timeout = 50 * sim::kMillisecond);

  // --- stepwise mutation hooks (randomized schedules, src/testing) ---

  /// Applies one flow-table change through the provider's authenticated
  /// control channel (like a reconfiguring — or compromised — provider).
  /// The result lands asynchronously after the control round trip.
  void provider_flow_mod(sdn::SwitchId sw, const sdn::FlowMod& mod,
                         sdn::FlowModCallback cb = {}) {
    provider_->handle().flow_mod(sw, mod, std::move(cb));
  }

  /// Applies one meter change through the provider channel. Meters are
  /// outside the snapshot change clock — RVaaS only sees them via polls.
  void provider_meter_mod(sdn::SwitchId sw, const sdn::MeterMod& mod) {
    provider_->handle().meter_mod(sw, mod);
  }

  /// Restart/recovery simulation: the RVaaS snapshot keeps its content but
  /// takes a fresh identity, forcing every cache tier to fully rebuild.
  void reset_rvaas_snapshot_identity() { rvaas_->reset_snapshot_identity(); }

  /// The signing key the (compromisable!) provider uses on its channels.
  const crypto::SigningKey& provider_key() const { return provider_key_; }

 private:
  ScenarioConfig config_;
  sim::EventLoop loop_;
  util::Rng rng_;
  std::unique_ptr<enclave::AttestationService> ias_;
  std::unique_ptr<sdn::Network> net_;
  crypto::SigningKey provider_key_;
  std::unique_ptr<control::ProviderController> provider_;
  std::unique_ptr<core::RvaasController> rvaas_;
  std::map<sdn::HostId, std::unique_ptr<core::ClientAgent>> clients_;
};

}  // namespace rvaas::workload
