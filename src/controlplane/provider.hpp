#pragma once
// The provider's network controller: installs tenant routing (VLAN-isolated
// shortest paths), QoS meters, and answers TTL-expiry punts (traceroute
// support). This is the component the paper's threat model assumes to be
// COMPROMISED — attack injectors (attacks/attacks.hpp) drive it to install
// malicious state through its legitimate, authenticated channels.

#include <map>
#include <vector>

#include "controlplane/routing.hpp"
#include "sdn/network.hpp"

namespace rvaas::control {

/// A tenant: an isolation domain with a VLAN id and member hosts.
struct TenantSpec {
  sdn::TenantId id{};
  std::uint16_t vlan = 0;
  std::vector<sdn::HostId> members;
};

struct ProviderConfig {
  std::vector<TenantSpec> tenants;
  HostAddressing addressing;
  /// Meter rate per tenant (0 = unmetered), for the QoS/fairness scenarios.
  std::map<sdn::TenantId, sdn::MeterConfig> tenant_meters;
};

/// Record of an installed route (used by attacks to find cloneable rules and
/// by experiments as ground truth).
struct InstalledRoute {
  sdn::HostId src;
  sdn::HostId dst;
  RoutePath path;
  std::vector<std::pair<sdn::SwitchId, sdn::FlowEntryId>> entries;
};

class ProviderController : public sdn::Controller {
 public:
  ProviderController(sdn::ControllerId id, ProviderConfig config,
                     util::Rng rng);

  sdn::ControllerId id() const override { return id_; }

  /// Authenticates to all switches. Must be called before install_routing.
  void connect(sdn::Network& net, const crypto::SigningKey& key);

  /// Installs VLAN-isolated pairwise shortest-path routes between all tenant
  /// members, plus per-tenant meters where configured.
  void install_routing();

  /// Answers TTL-expired punts with traceroute replies (see
  /// baselines/traceroute.hpp). In spoofing mode the compromised controller
  /// reports the switch the prober *expects* instead of the true one.
  void enable_traceroute_responder(bool spoof_expected_path);

  void on_packet_in(const sdn::PacketIn& msg) override;

  const ProviderConfig& config() const { return config_; }
  const std::vector<InstalledRoute>& routes() const { return routes_; }
  sdn::Network::ControllerHandle& handle();
  const HostAddressing& addressing() const { return config_.addressing; }

  /// Tenant a host belongs to (first match).
  std::optional<TenantSpec> tenant_of(sdn::HostId host) const;

  /// The switches on the installed route between two hosts, if routed.
  std::optional<std::vector<sdn::SwitchId>> route_switches(
      sdn::HostId src, sdn::HostId dst) const;

 private:
  sdn::ControllerId id_;
  ProviderConfig config_;
  util::Rng rng_;
  sdn::Network* net_ = nullptr;
  sdn::Network::ControllerHandle* handle_ = nullptr;
  std::vector<InstalledRoute> routes_;
  bool traceroute_responder_ = false;
  bool traceroute_spoof_ = false;
};

/// Value used for "expected path" spoofing: the provider pretends the packet
/// followed the shortest path even when the real rules divert it.
std::vector<sdn::SwitchId> expected_traceroute_path(
    const sdn::Topology& topo, sdn::PortRef from_ap, sdn::PortRef to_ap);

}  // namespace rvaas::control
