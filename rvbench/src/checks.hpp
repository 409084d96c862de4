#pragma once
// Correctness checks behind `failed` and error_rate. Every timed answer is
// checked; a check returns an empty string when the answer is right and the
// reason otherwise, so the self-tests can feed it corrupted inputs.

#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "net/client.hpp"
#include "rvaas/multiprovider.hpp"

namespace rvbench {

/// The logical content of a reply: endpoint access points and darkness,
/// jurisdictions and the transfer summary. Authentication outcomes, request
/// ids and freshness are left out: they legitimately depend on timing (an
/// auth reply racing the timeout), not on the routing state.
struct Content {
  rvaas::core::QueryKind kind = rvaas::core::QueryKind::ReachableEndpoints;
  std::vector<std::pair<rvaas::sdn::PortRef, bool>> endpoints;
  std::vector<std::string> jurisdictions;
  std::vector<std::pair<rvaas::sdn::PortRef, std::uint32_t>> transfer;

  bool operator==(const Content&) const = default;
  std::string describe() const;
};

Content content_of(const rvaas::core::QueryReply& reply);

/// A wire reply must have arrived in time, carry a valid enclave signature
/// and match one of the `allowed` cold-reference contents (more than one
/// when churn raced the query).
std::string check_reply(const rvaas::net::WireClient::Outcome& outcome,
                        const std::vector<const Content*>& allowed);

/// What the push for one subscription at one churn step must look like.
struct PushExpectation {
  std::uint64_t sequence = 0;
  rvaas::core::NotificationKind kind =
      rvaas::core::NotificationKind::AllClear;
  Content content;
};

/// A push must be for an expected subscription, continue its sequence by
/// exactly one, carry the verdict the expected content implies (both the
/// notification kind and the client's local re-check) and match the cold
/// reference. `expected` is nullptr when no push was due for this
/// subscription (a spurious or duplicate push).
std::string check_push(const rvaas::net::WireClient::Event& event,
                       const PushExpectation* expected);

/// The notification kind a subscription must carry for `content` under
/// `expect`, given which host authenticates at each non-dark endpoint
/// (every host behind such an endpoint answers its auth request).
rvaas::core::NotificationKind expected_kind(
    const Content& content, const rvaas::core::Expectation& expect,
    const std::function<std::optional<rvaas::sdn::HostId>(
        rvaas::sdn::PortRef)>& host_at);

/// Federation walk phases: on the clean baseline and after a revert no
/// crossing may be flagged and the report must equal the baseline one; with
/// an attack live the report must flag the attack's verdict.
enum class WalkPhase { Baseline, Attacked, Reverted };

std::string check_policy_walk(
    const rvaas::core::PolicyVerification& walk, WalkPhase phase,
    rvaas::core::PolicyVerdict attack_verdict,
    const std::vector<rvaas::core::PolicyReportItem>* baseline);

/// A reachability walk must not exceed its depth budget and must equal the
/// walk's result on the baseline (when known).
std::string check_reach_walk(
    const rvaas::core::FederatedResult& walk,
    const std::vector<rvaas::core::FederatedEndpoint>* baseline);

}  // namespace rvbench
