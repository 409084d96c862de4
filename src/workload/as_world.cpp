#include "workload/as_world.hpp"

#include <deque>
#include <set>

#include "hsa/transfer.hpp"
#include "util/ensure.hpp"

namespace rvaas::workload {

using core::NeighborClass;
using sdn::Field;
using sdn::FlowMod;
using sdn::Match;
using sdn::PortNo;
using sdn::PortRef;
using sdn::SwitchId;

namespace {

constexpr std::uint16_t kOwnAndCustomerPriority = 50;
constexpr std::uint16_t kIngressGuardPriority = 45;
constexpr std::uint16_t kPeerPriority = 44;
constexpr std::uint16_t kDefaultUpPriority = 40;
constexpr std::uint64_t kBaselineCookie = 0xa500;

/// For every switch reachable from `target`, the port leading one hop
/// closer to it (BFS over the internal links).
std::map<SwitchId, PortNo> ports_toward(const sdn::Topology& topo,
                                        SwitchId target) {
  std::map<SwitchId, PortNo> out;
  std::deque<SwitchId> queue{target};
  std::set<SwitchId> seen{target};
  while (!queue.empty()) {
    const SwitchId cur = queue.front();
    queue.pop_front();
    for (const sdn::LinkInfo& link : topo.links()) {
      PortRef far;
      if (link.a.sw == cur) {
        far = link.b;
      } else if (link.b.sw == cur) {
        far = link.a;
      } else {
        continue;
      }
      if (seen.insert(far.sw).second) {
        out[far.sw] = far.port;
        queue.push_back(far.sw);
      }
    }
  }
  return out;
}

}  // namespace

AsWorld::AsWorld(AsWorldConfig config) {
  util::Rng rng(config.seed);
  AsGraph graph = as_graph(config.n_domains, rng, config.tier0_fat_tree);
  tiers_ = graph.tier;
  adjacencies_ = graph.adjacencies;

  for (std::size_t d = 0; d < graph.domains.size(); ++d) {
    hosts_.push_back(graph.domains[d].hosts);
    ScenarioConfig sc;
    sc.generated = std::move(graph.domains[d]);
    sc.tenant_count = 1;
    sc.rvaas = config.rvaas;
    sc.seed = config.seed * 1000 + d + 1;
    runtimes_.push_back(std::make_unique<ScenarioRuntime>(std::move(sc)));
  }

  for (std::size_t d = 0; d < runtimes_.size(); ++d) {
    federation_.add_domain(provider_of(d), runtimes_[d]->rvaas());
  }
  for (const AsAdjacency& adj : adjacencies_) {
    const core::ProviderId up = provider_of(adj.up);
    const core::ProviderId down = provider_of(adj.down);
    // The physical wire carries traffic both ways; the federation's
    // peerings are directional, so declare both.
    federation_.add_peering(up, adj.up_port, down, adj.down_port);
    federation_.add_peering(down, adj.down_port, up, adj.up_port);
    if (adj.peer) {
      federation_.declare_relation(up, down, NeighborClass::Peer);
      federation_.declare_relation(down, up, NeighborClass::Peer);
    } else {
      federation_.declare_relation(up, down, NeighborClass::Customer);
      federation_.declare_relation(down, up, NeighborClass::Provider);
    }
    ingresses_.push_back(Ingress{
        adj.down, adj.up, adj.down_port,
        adj.peer ? NeighborClass::Peer : NeighborClass::Provider});
    ingresses_.push_back(Ingress{
        adj.up, adj.down, adj.up_port,
        adj.peer ? NeighborClass::Peer : NeighborClass::Customer});
  }

  // Every domain is authorized to originate exactly its own hosts'
  // prefixes — deliveries outside them are hijack indicators.
  for (std::size_t d = 0; d < runtimes_.size(); ++d) {
    hsa::HeaderSpace origin;
    for (const sdn::HostId h : hosts_[d]) {
      const std::uint32_t ip = control::HostAddressing::derive(h).ip;
      origin = origin.union_with(hsa::HeaderSpace(
          hsa::match_to_cube(Match().exact(Field::IpDst, ip))));
    }
    federation_.authorize_origin(provider_of(d), origin);
  }

  // Customer cones (own host IPs + every customer's cone, transitively).
  // Provider edges point strictly down-tier, so the recursion is over a DAG.
  cones_.resize(runtimes_.size());
  std::vector<std::vector<std::size_t>> customers(runtimes_.size());
  for (const AsAdjacency& adj : adjacencies_) {
    if (!adj.peer) customers[adj.up].push_back(adj.down);
  }
  std::vector<bool> done(runtimes_.size(), false);
  auto cone = [&](auto&& self, std::size_t d) -> void {
    if (done[d]) return;
    done[d] = true;
    std::set<std::uint32_t> ips;
    for (const sdn::HostId h : hosts_[d]) {
      ips.insert(control::HostAddressing::derive(h).ip);
    }
    for (const std::size_t c : customers[d]) {
      self(self, c);
      ips.insert(cones_[c].begin(), cones_[c].end());
    }
    cones_[d].assign(ips.begin(), ips.end());
  };
  for (std::size_t d = 0; d < runtimes_.size(); ++d) cone(cone, d);

  install_baseline_routing();
  settle_all();
}

void AsWorld::install(std::size_t d, SwitchId sw, const FlowMod& mod) {
  // Synchronous switch-level install (no control-channel round trip); the
  // flow monitor picks it up and the snapshot catches up on settle_all().
  runtimes_[d]->network().switch_sim(sw).apply_flow_mod(sdn::ControllerId(1),
                                                        mod);
}

void AsWorld::install_routes_toward(std::size_t d, PortRef target,
                                    const Match& match,
                                    std::uint16_t priority) {
  const sdn::Topology& topo = runtimes_[d]->network().topology();
  const auto toward = ports_toward(topo, target.sw);
  for (const SwitchId sw : topo.switches()) {
    FlowMod mod;
    mod.priority = priority;
    mod.cookie = kBaselineCookie;
    mod.match = match;
    if (sw == target.sw) {
      mod.actions = {sdn::DecTtlAction{}, sdn::output(target.port)};
    } else {
      const auto it = toward.find(sw);
      if (it == toward.end()) continue;  // disconnected from the target
      mod.actions = {sdn::DecTtlAction{}, sdn::output(it->second)};
    }
    install(d, sw, mod);
  }
}

void AsWorld::install_baseline_routing() {
  for (std::size_t d = 0; d < runtimes_.size(); ++d) {
    const sdn::Topology& topo = runtimes_[d]->network().topology();

    // P50: own hosts.
    for (const sdn::HostId h : hosts_[d]) {
      const auto ports = topo.host_ports(h);
      if (ports.empty()) continue;
      install_routes_toward(
          d, ports.front(),
          Match().exact(Field::IpDst, control::HostAddressing::derive(h).ip),
          kOwnAndCustomerPriority);
    }

    std::optional<PortRef> primary_provider_border;
    for (const AsAdjacency& adj : adjacencies_) {
      if (!adj.peer && adj.up == d) {
        // P50: down into this customer's cone.
        for (const std::uint32_t ip : cones_[adj.down]) {
          install_routes_toward(d, adj.up_port,
                                Match().exact(Field::IpDst, ip),
                                kOwnAndCustomerPriority);
        }
      } else if (!adj.peer && adj.down == d) {
        if (!primary_provider_border) primary_provider_border = adj.down_port;
      } else if (adj.peer && (adj.up == d || adj.down == d)) {
        // P44: toward this peer's cone (below the ingress guard, so only
        // own/customer traffic uses it).
        const std::size_t peer = adj.up == d ? adj.down : adj.up;
        const PortRef border = adj.up == d ? adj.up_port : adj.down_port;
        for (const std::uint32_t ip : cones_[peer]) {
          install_routes_toward(d, border, Match().exact(Field::IpDst, ip),
                                kPeerPriority);
        }
      }
    }

    // P45: guard every provider/peer ingress — transit traffic may only
    // leave through the P50 down-routes (the valley-free data plane).
    for (const Ingress& in : ingresses_) {
      if (in.domain != d) continue;
      if (in.feeder_class == NeighborClass::Customer) continue;
      FlowMod guard;
      guard.priority = kIngressGuardPriority;
      guard.cookie = kBaselineCookie;
      guard.match = Match().in_port(in.port.port);
      guard.actions = {sdn::drop()};
      install(d, in.port.sw, guard);
    }

    // P40: wildcard default — up toward the primary provider, or a drop at
    // the tier-0 core (a destination nobody originates must die somewhere,
    // not fall through to lower-priority tenant/churn rules).
    if (primary_provider_border) {
      install_routes_toward(d, *primary_provider_border, Match(),
                            kDefaultUpPriority);
    } else {
      for (const SwitchId sw : topo.switches()) {
        FlowMod mod;
        mod.priority = kDefaultUpPriority;
        mod.cookie = kBaselineCookie;
        mod.actions = {sdn::drop()};
        install(d, sw, mod);
      }
    }
  }
}

std::vector<AsWorld::Ingress> AsWorld::transit_ingresses() const {
  std::vector<Ingress> out;
  for (const Ingress& in : ingresses_) {
    if (in.feeder_class != NeighborClass::Customer) out.push_back(in);
  }
  return out;
}

void AsWorld::settle_all(sim::Time d) {
  for (auto& rt : runtimes_) rt->settle(d);
}

sdn::Trajectory AsWorld::trace(std::size_t d, PortRef ingress,
                               std::uint32_t dst_ip) {
  sdn::Packet packet;
  packet.hdr.eth_type = sdn::kEthTypeIpv4;
  packet.hdr.ip_proto = sdn::kIpProtoUdp;
  packet.hdr.ip_src = 0x0afe0001;  // outside every domain's host plan
  packet.hdr.ip_dst = dst_ip;
  packet.hdr.l4_dst = 33434;  // traceroute-ish
  return runtimes_[d]->network().trace(ingress, packet);
}

}  // namespace rvaas::workload
