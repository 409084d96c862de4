// Self-tests of the benchmark's own machinery: every correctness check must
// fire on a deliberately corrupted reply, push and report, and the
// percentile helper must refuse a tail it cannot resolve. Run with
// `rvbench --selftest` (exit 0 = all passed).

#include <cstdio>
#include <string>

#include "checks.hpp"
#include "measure.hpp"
#include "trace.hpp"

namespace rvbench {

using namespace rvaas;

namespace {

int failures = 0;

void expect(bool ok, const char* what) {
  std::printf("  %s %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++failures;
}

core::QueryReply sample_reply() {
  core::QueryReply r;
  r.kind = core::QueryKind::ReachableEndpoints;
  core::EndpointInfo e;
  e.access_point = sdn::PortRef{sdn::SwitchId(3), sdn::PortNo(2)};
  e.authenticated = true;
  e.authenticated_as = sdn::HostId(1003);
  r.endpoints.push_back(e);
  r.jurisdictions = {"DE"};
  return r;
}

void test_reply_check() {
  std::printf("reply check:\n");
  const core::QueryReply good = sample_reply();
  const Content want = content_of(good);
  net::WireClient::Outcome outcome;
  outcome.signature_ok = true;
  outcome.reply = good;
  expect(check_reply(outcome, {&want}).empty(), "correct reply passes");

  net::WireClient::Outcome extra = outcome;
  core::EndpointInfo rogue;
  rogue.access_point = sdn::PortRef{sdn::SwitchId(9), sdn::PortNo(4)};
  rogue.dark = true;
  extra.reply->endpoints.push_back(rogue);
  expect(!check_reply(extra, {&want}).empty(), "extra endpoint is caught");

  net::WireClient::Outcome geo = outcome;
  geo.reply->jurisdictions = {"US"};
  expect(!check_reply(geo, {&want}).empty(), "wrong jurisdiction is caught");

  net::WireClient::Outcome transfer = outcome;
  transfer.reply->transfer_summary.push_back(
      core::TransferSummaryEntry{rogue.access_point, 1});
  expect(!check_reply(transfer, {&want}).empty(),
         "wrong transfer summary is caught");

  net::WireClient::Outcome unsigned_reply = outcome;
  unsigned_reply.signature_ok = false;
  expect(!check_reply(unsigned_reply, {&want}).empty(),
         "bad signature is caught");

  net::WireClient::Outcome late;
  late.timed_out = true;
  expect(!check_reply(late, {&want}).empty(), "timeout is caught");

  net::WireClient::Outcome auth_only = outcome;
  auth_only.reply->endpoints[0].authenticated = false;
  auth_only.reply->request_id = 77;
  expect(check_reply(auth_only, {&want}).empty(),
         "auth outcome and request id are not content");
}

void test_push_check() {
  std::printf("push check:\n");
  const core::QueryReply reply = sample_reply();
  net::WireClient::Event ev;
  ev.subscription_id = 5;
  ev.sequence = 3;
  ev.kind = core::NotificationKind::AllClear;
  ev.reply = reply;
  ev.verdict.ok = true;
  const PushExpectation want{3, core::NotificationKind::AllClear,
                             content_of(reply)};
  expect(check_push(ev, &want).empty(), "correct push passes");
  expect(!check_push(ev, nullptr).empty(), "unowed push is caught");

  net::WireClient::Event dup = ev;
  dup.sequence = 4;
  expect(!check_push(dup, &want).empty(), "skipped sequence is caught");
  dup.sequence = 2;
  expect(!check_push(dup, &want).empty(), "replayed sequence is caught");

  net::WireClient::Event flipped = ev;
  flipped.kind = core::NotificationKind::ViolationAlert;
  expect(!check_push(flipped, &want).empty(), "wrong verdict kind is caught");

  net::WireClient::Event recheck = ev;
  recheck.verdict.ok = false;
  expect(!check_push(recheck, &want).empty(),
         "wrong client re-check is caught");

  net::WireClient::Event corrupt = ev;
  corrupt.reply.endpoints.clear();
  expect(!check_push(corrupt, &want).empty(), "corrupted content is caught");

  core::Expectation deny;
  deny.require_full_auth = false;
  deny.allowed_endpoints = {sdn::HostId(2000)};
  const auto host_at = [](sdn::PortRef) {
    return std::optional<sdn::HostId>(sdn::HostId(1003));
  };
  expect(expected_kind(content_of(reply), deny, host_at) ==
             core::NotificationKind::ViolationAlert,
         "whitelist miss implies a violation");
  expect(expected_kind(Content{}, deny, host_at) ==
             core::NotificationKind::AllClear,
         "empty answer implies all clear");
}

void test_report_check() {
  std::printf("federation report check:\n");
  core::PolicyReportItem ok_item;
  ok_item.from = core::ProviderId(1);
  ok_item.to = core::ProviderId(2);
  core::PolicyVerification clean;
  clean.reply.policy_report = {ok_item};
  const std::vector<core::PolicyReportItem> baseline = {ok_item};
  expect(check_policy_walk(clean, WalkPhase::Baseline, core::PolicyVerdict::Ok,
                           &baseline)
             .empty(),
         "clean baseline passes");

  core::PolicyVerification missed = clean;
  expect(!check_policy_walk(missed, WalkPhase::Attacked,
                            core::PolicyVerdict::RouteLeak, nullptr)
              .empty(),
         "missed detection is caught");

  core::PolicyVerification flagged = clean;
  flagged.reply.policy_report[0].verdict = core::PolicyVerdict::RouteLeak;
  expect(check_policy_walk(flagged, WalkPhase::Attacked,
                           core::PolicyVerdict::RouteLeak, nullptr)
             .empty(),
         "flagged attack passes");
  expect(!check_policy_walk(flagged, WalkPhase::Reverted,
                            core::PolicyVerdict::Ok, &baseline)
              .empty(),
         "unexpected report item after revert is caught");

  core::PolicyVerification drifted = clean;
  drifted.reply.policy_report[0].space_fingerprint = 42;
  expect(!check_policy_walk(drifted, WalkPhase::Reverted,
                            core::PolicyVerdict::Ok, &baseline)
              .empty(),
         "report differing from baseline is caught");

  core::PolicyVerification deep = clean;
  deep.depth_exceeded = true;
  expect(!check_policy_walk(deep, WalkPhase::Baseline, core::PolicyVerdict::Ok,
                            nullptr)
              .empty(),
         "depth overrun is caught");

  core::FederatedResult reach;
  core::FederatedEndpoint ep;
  ep.provider = core::ProviderId(3);
  reach.endpoints = {ep};
  const std::vector<core::FederatedEndpoint> reach_base = {ep};
  expect(check_reach_walk(reach, &reach_base).empty(), "same reach passes");
  reach.endpoints.clear();
  expect(!check_reach_walk(reach, &reach_base).empty(),
         "changed reach is caught");
}

void test_percentiles() {
  std::printf("percentile rule:\n");
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  expect(!checked_percentile(hundred, 99).has_value(),
         "p99 of 100 samples is refused");
  expect(checked_percentile(hundred, 90).value_or(-1) == 90,
         "p90 of 100 samples (10 beyond) resolves");
  expect(!checked_percentile(hundred, 91).has_value(),
         "p91 of 100 samples (9 beyond) is refused");
  std::vector<double> thousand;
  for (int i = 1; i <= 1000; ++i) thousand.push_back(i);
  expect(checked_percentile(thousand, 99).value_or(-1) == 990,
         "p99 of 1000 samples resolves");
  const auto tail = resolvable_tail(hundred);
  expect(tail && tail->p == 90, "tail of 100 samples falls back to p90");
  expect(!resolvable_tail(std::vector<double>(15, 1.0)).has_value(),
         "15 samples resolve no tail");
}

void test_self_time() {
  std::printf("span self time:\n");
  const Clock::time_point t0{};
  const auto at = [&](int us) { return t0 + std::chrono::microseconds(us); };
  const Span root{1, "wire.query", nullptr, at(0), at(100)};
  const Span a{1, "controller.exit", "wire.query", at(0), at(60)};
  const Span b{1, "net.return", "wire.query", at(50), at(90)};
  const Span grandchild{1, "controller.auth_wait", "controller.exit", at(10),
                        at(40)};
  const std::vector<const Span*> request = {&root, &a, &b, &grandchild};
  expect(self_time_us(root, request) == 10,
         "overlapping children are counted once");
  expect(self_time_us(a, request) == 30, "grandchildren belong to the child");
}

}  // namespace

int run_selftests() {
  failures = 0;
  test_reply_check();
  test_push_check();
  test_report_check();
  test_percentiles();
  test_self_time();
  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL",
              failures);
  return failures;
}

}  // namespace rvbench
