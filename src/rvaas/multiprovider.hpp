#pragma once
// Multi-provider extension (§IV.C.a): queries propagate between the RVaaS
// servers of consecutive providers. Border ports of one domain map to
// ingress ports of the next; when a reach computation exits at a border
// port, a signed subquery continues in the peer domain. Trust extends to
// all traversed RVaaS servers (exactly as the paper states).
//
// The same walk also serves policy verification: the federation keeps a
// per-domain policy store — business relations (customer/peer/provider),
// import/export rules over prefix spaces, and authorized origin prefixes —
// and judges observed crossings against it (QueryKind::PolicyCompliance):
// the route-origin / route-leak validation problem of the RPKI literature,
// answered from the data plane instead of from BGP announcements.

#include "rvaas/controller.hpp"

namespace rvaas::core {

// ProviderId lives in rvaas/query.hpp (the PolicyReportItem wire vocabulary
// needs it).

struct FederatedEndpoint {
  ProviderId provider{};
  EndpointInfo info;

  bool operator==(const FederatedEndpoint&) const = default;
};

struct FederatedResult {
  /// Deduplicated: a domain reached through several branches of the walk
  /// reports each (provider, access point) once.
  std::vector<FederatedEndpoint> endpoints;
  std::uint32_t subqueries = 0;  ///< server-to-server calls made
  std::uint32_t domains_visited = 0;
  bool depth_exceeded = false;
};

/// Gao-Rexford neighbor classes, as seen from one domain: my Customer pays
/// me, my Provider is paid by me, my Peer exchanges traffic settlement-free.
enum class NeighborClass : std::uint8_t { Customer = 0, Peer, Provider };

const char* to_string(NeighborClass cls);

/// One prefix-space x neighbor-class allow/deny rule. The first rule whose
/// neighbor class matches and whose space intersects the crossing traffic
/// decides; no matching rule means allow (rule lists are deny-listing
/// refinements on top of the structural valley-free check, which always
/// applies).
struct RoutePolicyRule {
  NeighborClass neighbor = NeighborClass::Customer;
  hsa::HeaderSpace space;
  bool allow = true;
};

/// A domain's import/export policy store: export rules judge traffic this
/// domain hands to a neighbor (classed by what the neighbor is to this
/// domain), import rules judge traffic a domain accepts (classed by what the
/// sender is to the accepting domain).
struct RoutePolicy {
  std::vector<RoutePolicyRule> import_rules;
  std::vector<RoutePolicyRule> export_rules;
};

/// Outcome of a PolicyCompliance walk: the reply (one PolicyReportItem per
/// observed crossing plus one per flagged terminal delivery) signed by the
/// start domain's enclave, and the walk's cost counters for scoreboards.
struct PolicyVerification {
  QueryReply reply;
  crypto::Signature signature;
  std::uint32_t domains_visited = 0;
  std::uint32_t subqueries = 0;
  std::uint32_t max_walk_depth = 0;  ///< deepest provider chain observed
  bool depth_exceeded = false;
};

class Federation {
 public:
  /// Registers a domain; its wiring plan is the controller's own topology
  /// (subqueries answer through the domain engine's cached model). The
  /// controller must already be bootstrapped.
  void add_domain(ProviderId id, RvaasController& rvaas);

  /// Declares that `border` (a dark port in domain `a`) is physically wired
  /// to `ingress` (a port in domain `b`). One direction; add both if needed.
  void add_peering(ProviderId a, sdn::PortRef border, ProviderId b,
                   sdn::PortRef ingress);

  /// Declares the business relation of `neighbor` as seen from `domain`.
  /// Declare both directions (A sees B as Customer <=> B sees A as
  /// Provider); crossings over undeclared relations are flagged
  /// UnexpectedCrossing.
  void declare_relation(ProviderId domain, ProviderId neighbor,
                        NeighborClass cls);

  /// Replaces `domain`'s import/export policy store.
  void set_policy(ProviderId domain, RoutePolicy policy);

  /// Adds `prefixes` (typically exact-IpDst cubes of the domain's own
  /// hosts) to the origin space `domain` is authorized to deliver locally.
  /// Once any origin space is declared, terminal deliveries outside it are
  /// flagged UnauthorizedOrigin — the data-plane analogue of announcing a
  /// foreign prefix.
  void authorize_origin(ProviderId domain, const hsa::HeaderSpace& prefixes);

  /// Recursive reachability across domains, starting at `ingress` in
  /// `start`. Server-to-server subqueries are signed by the requesting
  /// enclave and verified against the federation's key registry.
  FederatedResult reachable(ProviderId start, sdn::PortRef ingress,
                            const sdn::Match& constraint,
                            std::uint32_t max_domains = 8) const;

  /// Policy-compliance walk over the observed crossings of traffic entering
  /// at `ingress` of `start`: the same walk as reachable(), its report
  /// returned as a PolicyCompliance reply signed by the start domain's
  /// enclave, like any other reply.
  PolicyVerification verify_policy(ProviderId start, sdn::PortRef ingress,
                                   const sdn::Match& constraint,
                                   std::uint32_t max_domains = 8) const;

  /// Canonical signed payload of a server-to-server subquery: binds the
  /// crossing point, the crossing header space and the remaining walk
  /// depth, so a recorded subquery never verifies for different traffic or
  /// a different budget (tamper coverage in test_codec_robustness).
  static util::Bytes subquery_payload(sdn::PortRef ingress,
                                      const hsa::HeaderSpace& hs,
                                      std::uint32_t depth_left);

 private:
  struct Peering {
    ProviderId to{};
    sdn::PortRef ingress;
  };
  struct WalkStats {
    std::uint32_t subqueries = 0;
    std::uint32_t domains_visited = 0;
    std::uint32_t max_depth = 0;
    bool depth_exceeded = false;
  };

  struct ReachVisitor;   ///< collects deduplicated terminal endpoints
  struct PolicyVisitor;  ///< judges crossings and terminal origins

  /// The one recursive walk behind reachable() and verify_policy(): loop
  /// guard, depth budget, per-domain evaluate and one signed subquery per
  /// border crossing, with the visitor's `deliver` / `cross` hooks deciding
  /// what each egress means. `visited` is the provider chain of the current
  /// branch, maintained by reference with push/pop backtracking (no
  /// per-recursion copies).
  template <typename Visitor>
  void walk(ProviderId domain, sdn::PortRef ingress, NeighborClass entered_from,
            const hsa::HeaderSpace& hs, std::uint32_t depth_left,
            std::vector<ProviderId>& visited, WalkStats& stats,
            Visitor& visitor) const;

  std::optional<NeighborClass> relation(ProviderId domain,
                                        ProviderId neighbor) const;

  /// First-match rule scan; no matching rule = allow.
  static bool policy_allows(const std::vector<RoutePolicyRule>& rules,
                            NeighborClass cls, const hsa::HeaderSpace& space);

  /// The class of whoever feeds (domain, ingress): reverse peering lookup,
  /// worst-cased to Provider for an undeclared feeder; Customer when
  /// nothing feeds the port (the walk starts on domain-originated traffic).
  NeighborClass entry_class(ProviderId domain, sdn::PortRef ingress) const;

  /// Simulated secure server-to-server call: the caller signs the subquery,
  /// the callee verifies against the registry before answering.
  bool verify_subquery(ProviderId from, const util::Bytes& payload,
                       const crypto::Signature& sig) const;

  std::map<ProviderId, RvaasController*> domains_;
  std::map<std::pair<ProviderId, sdn::PortRef>, Peering> peerings_;
  std::map<std::pair<ProviderId, ProviderId>, NeighborClass> relations_;
  std::map<ProviderId, RoutePolicy> policies_;
  std::map<ProviderId, hsa::HeaderSpace> origins_;
};

}  // namespace rvaas::core
