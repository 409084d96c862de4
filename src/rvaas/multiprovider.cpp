#include "rvaas/multiprovider.hpp"

#include <algorithm>
#include <set>

#include "util/ensure.hpp"

namespace rvaas::core {

const char* to_string(NeighborClass cls) {
  switch (cls) {
    case NeighborClass::Customer:
      return "customer";
    case NeighborClass::Peer:
      return "peer";
    case NeighborClass::Provider:
      return "provider";
  }
  return "unknown";
}

void Federation::add_domain(ProviderId id, RvaasController& rvaas) {
  util::ensure(!domains_.contains(id), "duplicate provider id");
  domains_[id] = &rvaas;
}

void Federation::add_peering(ProviderId a, sdn::PortRef border, ProviderId b,
                             sdn::PortRef ingress) {
  util::ensure(domains_.contains(a) && domains_.contains(b),
               "peering references unknown domain");
  peerings_[{a, border}] = Peering{b, ingress};
}

void Federation::declare_relation(ProviderId domain, ProviderId neighbor,
                                  NeighborClass cls) {
  util::ensure(domains_.contains(domain) && domains_.contains(neighbor),
               "relation references unknown domain");
  relations_[{domain, neighbor}] = cls;
}

void Federation::set_policy(ProviderId domain, RoutePolicy policy) {
  util::ensure(domains_.contains(domain), "policy for unknown domain");
  policies_[domain] = std::move(policy);
}

void Federation::authorize_origin(ProviderId domain,
                                  const hsa::HeaderSpace& prefixes) {
  util::ensure(domains_.contains(domain), "origin for unknown domain");
  const auto [it, inserted] = origins_.try_emplace(domain, prefixes);
  if (!inserted) it->second = it->second.union_with(prefixes);
}

std::optional<NeighborClass> Federation::relation(ProviderId domain,
                                                  ProviderId neighbor) const {
  const auto it = relations_.find({domain, neighbor});
  if (it == relations_.end()) return std::nullopt;
  return it->second;
}

bool Federation::policy_allows(const std::vector<RoutePolicyRule>& rules,
                               NeighborClass cls,
                               const hsa::HeaderSpace& space) {
  for (const RoutePolicyRule& rule : rules) {
    if (rule.neighbor != cls) continue;
    if (space.intersect(rule.space).is_empty()) continue;
    return rule.allow;
  }
  return true;
}

NeighborClass Federation::entry_class(ProviderId domain,
                                      sdn::PortRef ingress) const {
  for (const auto& [key, peering] : peerings_) {
    if (peering.to == domain && peering.ingress == ingress) {
      if (const auto rel = relation(domain, key.first)) return *rel;
      return NeighborClass::Provider;  // undeclared feeder: worst case
    }
  }
  return NeighborClass::Customer;  // domain-originated traffic
}

bool Federation::verify_subquery(ProviderId from, const util::Bytes& payload,
                                 const crypto::Signature& sig) const {
  const auto it = domains_.find(from);
  if (it == domains_.end()) return false;
  return it->second->enclave().verify_key().verify(payload, sig);
}

util::Bytes Federation::subquery_payload(sdn::PortRef ingress,
                                         const hsa::HeaderSpace& hs,
                                         std::uint32_t depth_left) {
  util::ByteWriter w;
  w.put_string("rvaas-federated-subquery-v2");
  w.put_u32(ingress.sw.value);
  w.put_u32(ingress.port.value);
  // Binding the crossing space (structural fingerprint) and the remaining
  // budget keeps a recorded subquery from verifying for different traffic
  // or at a different walk depth.
  w.put_u64(hs.fingerprint());
  w.put_u32(depth_left);
  return w.take();
}

/// The one federation walk. Each domain answers from its own snapshot —
/// domains never see each other's configuration, only endpoint answers
/// (confidentiality). A subquery runs through the domain engine's single
/// per-kind dispatch (QueryEngine::evaluate), so it shares the incremental
/// model cache (L1) and reach cache (L2) with the domain's own query paths:
/// a walk re-entering an unchanged domain at the same ingress is a cache
/// hit. The crossing space is multi-cube, hence space_override; a border
/// ingress is not a requester, hence no hairpin exclusion.
///
/// Every raw egress subspace of the domain's reach goes to the visitor:
/// `deliver` for a terminal egress, `cross` for a peered border, after which
/// the walk continues in the peer domain as a signed server-to-server
/// subquery. `entered_from` is the class of the neighbor the traffic entered
/// this domain from — the valley-free state the policy visitor judges.
template <typename Visitor>
void Federation::walk(ProviderId domain, sdn::PortRef ingress,
                      NeighborClass entered_from, const hsa::HeaderSpace& hs,
                      std::uint32_t depth_left,
                      std::vector<ProviderId>& visited, WalkStats& stats,
                      Visitor& visitor) const {
  // The loop guard runs BEFORE the depth check: a branch pruned for
  // re-entering a domain terminates regardless of budget, so it must not
  // report depth_exceeded (a loop is not a depth problem).
  if (std::find(visited.begin(), visited.end(), domain) != visited.end()) {
    return;
  }
  if (depth_left == 0) {
    stats.depth_exceeded = true;
    return;
  }
  visited.push_back(domain);
  ++stats.domains_visited;
  stats.max_depth =
      std::max(stats.max_depth, static_cast<std::uint32_t>(visited.size()));

  const auto it = domains_.find(domain);
  util::ensure(it != domains_.end(), "unknown domain in federation walk");
  const RvaasController& rvaas = *it->second;

  Property property;
  property.kind = QueryKind::ReachableEndpoints;
  QueryEngine::EvalContext ctx;
  ctx.from = ingress;
  ctx.space_override = &hs;
  ctx.exclude_requester = false;
  const QueryEngine::Evaluation eval =
      rvaas.engine().evaluate(rvaas.snapshot(), property, ctx);

  for (const hsa::ReachedEndpoint& endpoint : eval.primary_reach->endpoints) {
    const auto peering_it = peerings_.find({domain, endpoint.egress});
    if (peering_it == peerings_.end()) {
      visitor.deliver(domain, endpoint);
      continue;
    }
    const Peering& peering = peering_it->second;
    visitor.cross(domain, peering, entered_from, endpoint);

    const util::Bytes payload =
        subquery_payload(peering.ingress, endpoint.space, depth_left - 1);
    const crypto::Signature sig = rvaas.enclave().sign(payload);
    util::ensure(verify_subquery(domain, payload, sig),
                 "federated subquery signature rejected");
    ++stats.subqueries;

    // An undeclared inverse relation worst-cases to Provider so a later
    // export can still be recognized as a leak.
    walk(peering.to, peering.ingress,
         relation(peering.to, domain).value_or(NeighborClass::Provider),
         endpoint.space, depth_left - 1, visited, stats, visitor);
  }
  visited.pop_back();
}

/// Collects terminal endpoints, each (provider, access point) once: branches
/// that re-enter a domain, or several raw subspaces exiting at one access
/// point, repeat the same answer. `dark` is a function of the access point
/// and federated endpoints are never authenticated, so the pair is the
/// whole endpoint.
struct Federation::ReachVisitor {
  std::vector<FederatedEndpoint> endpoints;
  std::set<std::pair<ProviderId, sdn::PortRef>> seen;

  void deliver(ProviderId domain, const hsa::ReachedEndpoint& endpoint) {
    if (!seen.emplace(domain, endpoint.egress).second) return;
    FederatedEndpoint fe;
    fe.provider = domain;
    fe.info.access_point = endpoint.egress;
    fe.info.dark = !endpoint.host.has_value();
    endpoints.push_back(fe);
  }
  void cross(ProviderId, const Peering&, NeighborClass,
             const hsa::ReachedEndpoint&) {}
};

/// Judges each crossing against relations + import/export rules and each
/// terminal host delivery against the authorized origin space. Continues
/// past violations: downstream of a leak there may be more to surface.
struct Federation::PolicyVisitor {
  const Federation& fed;
  std::vector<PolicyReportItem> report;

  void deliver(ProviderId domain, const hsa::ReachedEndpoint& endpoint) {
    // Dark-port egress is the exfiltration story of the endpoint query
    // kinds; the origin question applies to actual host deliveries: traffic
    // delivered locally outside the domain's authorized origin space is a
    // hijack indicator.
    const auto origin = fed.origins_.find(domain);
    if (origin == fed.origins_.end()) return;
    if (!endpoint.host.has_value()) return;
    hsa::HeaderSpace residual = endpoint.space;
    for (const hsa::Wildcard& w : origin->second.resolve()) {
      residual = residual.subtract(w);
    }
    if (!residual.is_empty()) {
      report.push_back(PolicyReportItem{
          PolicyVerdict::UnauthorizedOrigin, domain, domain, endpoint.egress,
          endpoint.egress, endpoint.space.fingerprint()});
    }
  }

  void cross(ProviderId domain, const Peering& peering,
             NeighborClass entered_from,
             const hsa::ReachedEndpoint& endpoint) {
    // Declared relations both ways, then each side's rule store, then the
    // valley-free condition (traffic learned from a non-customer may only
    // be exported to a customer).
    const auto rel_out = fed.relation(domain, peering.to);
    const auto rel_in = fed.relation(peering.to, domain);
    PolicyVerdict verdict = PolicyVerdict::Ok;
    if (!rel_out || !rel_in) {
      verdict = PolicyVerdict::UnexpectedCrossing;
    } else {
      const auto exp = fed.policies_.find(domain);
      const auto imp = fed.policies_.find(peering.to);
      const bool exported =
          exp == fed.policies_.end() ||
          policy_allows(exp->second.export_rules, *rel_out, endpoint.space);
      const bool imported =
          imp == fed.policies_.end() ||
          policy_allows(imp->second.import_rules, *rel_in, endpoint.space);
      if (!exported || !imported) {
        verdict = PolicyVerdict::UnexpectedCrossing;
      } else if (entered_from != NeighborClass::Customer &&
                 *rel_out != NeighborClass::Customer) {
        verdict = PolicyVerdict::RouteLeak;
      }
    }
    report.push_back(PolicyReportItem{verdict, domain, peering.to,
                                      endpoint.egress, peering.ingress,
                                      endpoint.space.fingerprint()});
  }
};

FederatedResult Federation::reachable(ProviderId start, sdn::PortRef ingress,
                                      const sdn::Match& constraint,
                                      std::uint32_t max_domains) const {
  ReachVisitor visitor;
  WalkStats stats;
  std::vector<ProviderId> visited;
  // Reachability ignores the valley-free state.
  walk(start, ingress, NeighborClass::Customer,
       QueryEngine::constraint_space(constraint), max_domains, visited, stats,
       visitor);

  FederatedResult out;
  out.endpoints = std::move(visitor.endpoints);
  out.subqueries = stats.subqueries;
  out.domains_visited = stats.domains_visited;
  out.depth_exceeded = stats.depth_exceeded;
  return out;
}

PolicyVerification Federation::verify_policy(ProviderId start,
                                             sdn::PortRef ingress,
                                             const sdn::Match& constraint,
                                             std::uint32_t max_domains) const {
  const auto it = domains_.find(start);
  util::ensure(it != domains_.end(), "unknown start domain");

  PolicyVisitor visitor{*this, {}};
  WalkStats stats;
  std::vector<ProviderId> visited;
  walk(start, ingress, entry_class(start, ingress),
       QueryEngine::constraint_space(constraint), max_domains, visited, stats,
       visitor);

  PolicyVerification out;
  out.reply.kind = QueryKind::PolicyCompliance;
  out.reply.policy_report = std::move(visitor.report);
  out.signature = it->second->enclave().sign(out.reply.signing_payload());
  out.domains_visited = stats.domains_visited;
  out.subqueries = stats.subqueries;
  out.max_walk_depth = stats.max_depth;
  out.depth_exceeded = stats.depth_exceeded;
  return out;
}

}  // namespace rvaas::core
