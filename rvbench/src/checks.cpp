#include "checks.hpp"

#include <algorithm>
#include <sstream>

namespace rvbench {

using namespace rvaas;

std::string Content::describe() const {
  std::ostringstream os;
  os << core::to_string(kind) << " endpoints{";
  for (const auto& [ap, dark] : endpoints) os << ap << (dark ? "*" : "") << " ";
  os << "} geo{";
  for (const auto& j : jurisdictions) os << j << " ";
  os << "} transfer{";
  for (const auto& [ap, cubes] : transfer) os << ap << "x" << cubes << " ";
  os << "}";
  return os.str();
}

Content content_of(const core::QueryReply& reply) {
  Content c;
  c.kind = reply.kind;
  for (const core::EndpointInfo& e : reply.endpoints) {
    c.endpoints.emplace_back(e.access_point, e.dark);
  }
  c.jurisdictions = reply.jurisdictions;
  for (const core::TransferSummaryEntry& t : reply.transfer_summary) {
    c.transfer.emplace_back(t.egress, t.cube_count);
  }
  std::sort(c.endpoints.begin(), c.endpoints.end());
  std::sort(c.jurisdictions.begin(), c.jurisdictions.end());
  std::sort(c.transfer.begin(), c.transfer.end());
  return c;
}

std::string check_reply(const net::WireClient::Outcome& outcome,
                        const std::vector<const Content*>& allowed) {
  if (outcome.timed_out || !outcome.reply) return "reply timed out";
  if (!outcome.signature_ok) return "reply signature did not verify";
  const Content got = content_of(*outcome.reply);
  for (const Content* want : allowed) {
    if (want != nullptr && got == *want) return "";
  }
  return "reply differs from cold engine: got " + got.describe() +
         (allowed.empty() || allowed.front() == nullptr
              ? std::string()
              : ", want " + allowed.front()->describe());
}

core::NotificationKind expected_kind(
    const Content& content, const core::Expectation& expect,
    const std::function<std::optional<sdn::HostId>(sdn::PortRef)>& host_at) {
  core::QueryReply reply;
  reply.kind = content.kind;
  for (const auto& [ap, dark] : content.endpoints) {
    core::EndpointInfo e;
    e.access_point = ap;
    e.dark = dark;
    if (!dark) e.authenticated_as = host_at(ap);
    e.authenticated = e.authenticated_as.has_value();
    reply.endpoints.push_back(e);
  }
  reply.jurisdictions = content.jurisdictions;
  return core::evaluate_reply(reply, expect).ok
             ? core::NotificationKind::AllClear
             : core::NotificationKind::ViolationAlert;
}

std::string check_push(const net::WireClient::Event& event,
                       const PushExpectation* expected) {
  const std::string sub = "subscription " +
                          std::to_string(event.subscription_id & 0xffffffff);
  if (expected == nullptr) {
    return "unexpected push for " + sub + " (seq " +
           std::to_string(event.sequence) + ")";
  }
  if (event.sequence != expected->sequence) {
    return "push for " + sub + " has seq " + std::to_string(event.sequence) +
           ", want " + std::to_string(expected->sequence);
  }
  if (event.kind != expected->kind) {
    return "push for " + sub + " is " + core::to_string(event.kind) +
           ", want " + core::to_string(expected->kind);
  }
  const bool client_ok = expected->kind == core::NotificationKind::AllClear;
  if (event.verdict.ok != client_ok) {
    return "push for " + sub + " re-checks to the wrong verdict";
  }
  const Content got = content_of(event.reply);
  if (got != expected->content) {
    return "push for " + sub + " differs from cold engine: got " +
           got.describe() + ", want " + expected->content.describe();
  }
  return "";
}

std::string check_policy_walk(
    const core::PolicyVerification& walk, WalkPhase phase,
    core::PolicyVerdict attack_verdict,
    const std::vector<core::PolicyReportItem>* baseline) {
  if (walk.depth_exceeded) return "policy walk exceeded its depth budget";
  const auto& report = walk.reply.policy_report;
  if (phase == WalkPhase::Attacked) {
    const bool flagged = std::any_of(
        report.begin(), report.end(),
        [&](const auto& item) { return item.verdict == attack_verdict; });
    return flagged ? ""
                   : std::string("attack not flagged as ") +
                         core::to_string(attack_verdict);
  }
  for (const core::PolicyReportItem& item : report) {
    if (item.verdict != core::PolicyVerdict::Ok) {
      return std::string("unexpected ") + core::to_string(item.verdict) +
             (phase == WalkPhase::Reverted ? " after revert" : " on baseline");
    }
  }
  if (baseline != nullptr && report != *baseline) {
    return phase == WalkPhase::Reverted
               ? "report after revert differs from the baseline"
               : "baseline report changed between sweeps";
  }
  return "";
}

std::string check_reach_walk(
    const core::FederatedResult& walk,
    const std::vector<core::FederatedEndpoint>* baseline) {
  if (walk.depth_exceeded) return "reach walk exceeded its depth budget";
  if (baseline != nullptr && walk.endpoints != *baseline) {
    return "reach walk differs from the baseline";
  }
  return "";
}

}  // namespace rvbench
