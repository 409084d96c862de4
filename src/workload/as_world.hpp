#pragma once
// AsWorld: a many-domain federation world over topo_gen's as_graph. Each
// domain runs a full ScenarioRuntime (its own event loop, provider, RVaaS
// enclave); the Federation gets both peering directions, the Gao-Rexford
// relations and authorized-origin prefixes of every adjacency, and each
// domain's provider installs a valley-free inter-domain baseline:
//
//   P50  dst-exact routes to own hosts and down into customer cones
//   P45  in_port guard (drop) on every provider/peer ingress — what enters
//        from a non-customer may only leave through the P50 down-routes
//   P44  dst-exact routes toward peer cones (below the guard: customer and
//        own traffic reaches peers, transit traffic does not)
//   P40  wildcard default up toward the primary provider (tier-0 domains
//        drop instead: a dst nobody originates dies at the core)
//
// The priorities sit above tenant routing (8-10) and fuzz churn (1-29), and
// below the inter-domain attacks (60) and the RVaaS in-band rules (0xffff),
// so policy walks and functional traces see exactly this baseline plus
// whatever an attack overlays.

#include "rvaas/multiprovider.hpp"
#include "workload/scenario.hpp"

namespace rvaas::workload {

struct AsWorldConfig {
  std::uint32_t n_domains = 4;
  std::uint64_t seed = 1;
  /// fat_tree(4) transit cores; off = small random_isp everywhere (cheaper
  /// worlds for the policy fuzzer).
  bool tier0_fat_tree = true;
  /// Applied to every domain's RVaaS controller.
  core::RvaasConfig rvaas;
};

class AsWorld {
 public:
  explicit AsWorld(AsWorldConfig config);

  AsWorld(const AsWorld&) = delete;
  AsWorld& operator=(const AsWorld&) = delete;

  static core::ProviderId provider_of(std::size_t d) {
    return core::ProviderId(static_cast<std::uint32_t>(d + 1));
  }

  std::size_t domain_count() const { return runtimes_.size(); }
  ScenarioRuntime& domain(std::size_t d) { return *runtimes_[d]; }
  core::Federation& federation() { return federation_; }
  const std::vector<AsAdjacency>& adjacencies() const { return adjacencies_; }
  const std::vector<std::uint32_t>& tiers() const { return tiers_; }
  const std::vector<sdn::HostId>& domain_hosts(std::size_t d) const {
    return hosts_[d];
  }

  /// One declared ingress of a domain (either direction of a peering).
  struct Ingress {
    std::size_t domain = 0;  ///< domain owning `port`
    std::size_t feeder = 0;  ///< domain on the far side of the wire
    sdn::PortRef port;       ///< ingress port inside `domain`
    /// What `feeder` is to `domain` (a route leak needs a non-Customer).
    core::NeighborClass feeder_class = core::NeighborClass::Customer;
  };
  const std::vector<Ingress>& ingresses() const { return ingresses_; }
  /// Only the provider/peer-fed ingresses: where transit traffic enters and
  /// route leaks become possible.
  std::vector<Ingress> transit_ingresses() const;

  void settle_all(sim::Time d = 10 * sim::kMillisecond);

  /// Functional ground truth: trajectory of an untagged UDP packet with
  /// destination `dst_ip` injected at `ingress` of domain `d`.
  sdn::Trajectory trace(std::size_t d, sdn::PortRef ingress,
                        std::uint32_t dst_ip);

  /// IPs of domain d's own hosts plus its whole customer cone — what the
  /// baseline routes down from d.
  const std::vector<std::uint32_t>& cone_ips(std::size_t d) const {
    return cones_[d];
  }

 private:
  void install_baseline_routing();
  void install(std::size_t d, sdn::SwitchId sw, const sdn::FlowMod& mod);
  /// Installs `match`-routes on every switch of `d` toward `target`
  /// (output(target.port) on target.sw, next hop toward it elsewhere).
  void install_routes_toward(std::size_t d, sdn::PortRef target,
                             const sdn::Match& match, std::uint16_t priority);

  std::vector<std::unique_ptr<ScenarioRuntime>> runtimes_;
  std::vector<std::vector<sdn::HostId>> hosts_;
  std::vector<std::vector<std::uint32_t>> cones_;
  std::vector<std::uint32_t> tiers_;
  std::vector<AsAdjacency> adjacencies_;
  std::vector<Ingress> ingresses_;
  core::Federation federation_;
};

}  // namespace rvaas::workload
