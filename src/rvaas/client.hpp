#pragma once
// The client side of RVaaS. ClientProtocol is the transport-free protocol
// core; ClientAgent is its in-band transport, and net::WireClient its TCP one.

#include <functional>
#include <map>
#include <set>

#include "enclave/attestation.hpp"
#include "rvaas/inband.hpp"
#include "sdn/network.hpp"

namespace rvaas::core {

/// The client half of the RVaaS protocol, with no transport attached. It owns
/// everything a client verifies or signs: its keys, the pinned RVaaS keys and
/// the attestation check that pins them, the request-id clock, sealed query
/// and (un)subscribe envelopes, answers to authentication requests, reply
/// opening and the push guards. ClientAgent (in-band) and net::WireClient
/// (TCP) are thin transports over one of these.
class ClientProtocol {
 public:
  /// Draws the signing key, then the box key, from `rng`; every later seal
  /// draws from it in send order.
  explicit ClientProtocol(util::Rng rng);

  const crypto::VerifyKey& verify_key() const { return key_.verify_key(); }
  const crypto::BigUInt& box_public() const { return box_.public_element(); }
  sdn::HostId host() const { return host_; }

  /// Starts a session as `host` at `address`: request ids restart at
  /// (host << 32) | 1. The counter doubles as the subscribe freshness clock.
  void begin_session(sdn::HostId host, const control::HostAddress& address);
  /// Forgets the session's subscriptions and outstanding queries; the pinned
  /// RVaaS keys stay.
  void end_session();

  /// Pins the RVaaS service keys (normally after a verified attestation).
  void trust_rvaas(crypto::VerifyKey rvaas_key, crypto::BigUInt rvaas_box_pub);
  /// Verifies an attestation quote: authentic (signed by `ias_root`), the
  /// expected measurement, and report data binding the given keys. On
  /// success the keys are pinned (trust_rvaas).
  bool verify_attestation(const enclave::Quote& quote,
                          const crypto::VerifyKey& ias_root,
                          const enclave::Measurement& expected,
                          const crypto::VerifyKey& rvaas_key,
                          const crypto::BigUInt& rvaas_box_pub);

  /// An envelope ready for the transport, and the id it carries.
  struct Sealed {
    std::uint64_t id = 0;
    sdn::Packet packet;
  };
  // The seal_* calls require pinned RVaaS keys (util::ensure).
  /// A sealed query; its reply is awaited until received or expire()d.
  Sealed seal_query(const Query& query);
  /// A signed, sealed subscription; registers the local push guards.
  Sealed seal_subscribe(const Property& property, NotifyPolicy policy);
  /// Drops the local subscription and seals its unsubscribe; nullopt (and
  /// nothing to send) if `subscription_id` is not an active subscription.
  std::optional<sdn::Packet> seal_unsubscribe(std::uint64_t subscription_id);
  /// Stops awaiting the reply to `request_id`; true (counted as a timeout)
  /// if it was still awaited.
  bool expire(std::uint64_t request_id);

  /// One verified push from the RVaaS monitor.
  struct MonitorEvent {
    std::uint64_t subscription_id = 0;
    bool signature_ok = false;
    NotificationKind kind = NotificationKind::AllClear;
    std::uint64_t sequence = 0;
    std::uint64_t epoch = 0;
    QueryReply reply;
    /// Client-side re-check of the pushed reply against the subscribed
    /// expectation (trust, but verify the verdict locally).
    Verdict verdict;
  };
  /// What one inbound packet asks of the transport; at most one field is set.
  struct Inbound {
    /// Signed AuthReply answering a verified AuthRequest: send it back out
    /// where the request came in.
    std::optional<sdn::Packet> answer;
    /// Verified reply to an awaited query (no longer awaited).
    std::optional<inband::OpenedReply> reply;
    /// Push that passed every guard.
    std::optional<MonitorEvent> event;
  };
  /// Verifies one inbound packet against the pinned keys. Nothing comes back
  /// before trust is established, for an AuthRequest that fails to verify,
  /// for a reply nobody awaits, or for a push that fails a guard (bad box or
  /// signature, replayed or reordered sequence, another property's
  /// fingerprint, unknown subscription).
  Inbound receive(const sdn::Packet& packet);

  struct Stats {
    std::uint64_t queries_sent = 0;
    std::uint64_t replies_received = 0;
    std::uint64_t bad_replies = 0;  ///< undecryptable / bad signature
    std::uint64_t timeouts = 0;
    std::uint64_t auth_requests_answered = 0;
    std::uint64_t crypto_ops = 0;  ///< asymmetric operations (E9)

    // Push verification:
    std::uint64_t subscribes_sent = 0;
    std::uint64_t unsubscribes_sent = 0;
    std::uint64_t notifications_received = 0;
    /// Bad box/signature, replayed/reordered, another property's
    /// fingerprint, or no such subscription (e.g. unsubscribed in flight).
    std::uint64_t bad_notifications = 0;
    std::uint64_t alerts_received = 0;
    std::uint64_t all_clears_received = 0;
    std::uint64_t degraded_received = 0;  ///< VerificationDegraded pushes
  };
  const Stats& stats() const { return stats_; }

 private:
  void require_trust() const;
  std::optional<MonitorEvent> accept_notification(const sdn::Packet& packet);

  util::Rng rng_;
  crypto::SigningKey key_;
  crypto::BoxOpener box_;
  sdn::HostId host_{};
  control::HostAddress address_;
  std::optional<crypto::VerifyKey> rvaas_key_;
  std::optional<crypto::BigUInt> rvaas_box_pub_;

  struct Subscription {
    Property property;
    std::uint64_t last_sequence = 0;  ///< replay guard
  };
  std::map<std::uint64_t, Subscription> subscriptions_;
  std::set<std::uint64_t> awaiting_;  ///< query ids with no reply yet
  std::uint64_t next_request_id_ = 0;
  Stats stats_;
};

/// The client-side agent: a user-space process behind an access point that
/// (a) sends sealed queries to RVaaS through the in-band magic channel,
/// (b) automatically answers RVaaS authentication requests with signed
///     replies ("clients run a software which responds to our
///     authentication requests, in user space", §IV.A.3),
/// (c) verifies reply signatures and attestation quotes, and
/// (d) detects query suppression by timeout.
class ClientAgent {
 public:
  ClientAgent(sdn::HostId host, sdn::Network& net,
              const control::HostAddress& address, util::Rng rng);

  // The network holds a callback into this object; pin it in place.
  ClientAgent(const ClientAgent&) = delete;
  ClientAgent& operator=(const ClientAgent&) = delete;

  sdn::HostId host() const { return protocol_.host(); }
  const crypto::VerifyKey& verify_key() const {
    return protocol_.verify_key();
  }
  const crypto::BigUInt& box_public() const { return protocol_.box_public(); }

  /// Pin the RVaaS service keys (normally after a verified attestation).
  void trust_rvaas(crypto::VerifyKey rvaas_key, crypto::BigUInt rvaas_box_pub) {
    protocol_.trust_rvaas(std::move(rvaas_key), std::move(rvaas_box_pub));
  }

  /// Verifies an attestation quote and pins the keys it binds
  /// (ClientProtocol::verify_attestation).
  bool verify_attestation(const enclave::Quote& quote,
                          const crypto::VerifyKey& ias_root,
                          const enclave::Measurement& expected,
                          const crypto::VerifyKey& rvaas_key,
                          const crypto::BigUInt& rvaas_box_pub) {
    return protocol_.verify_attestation(quote, ias_root, expected, rvaas_key,
                                        rvaas_box_pub);
  }

  struct Outcome {
    bool timed_out = false;
    bool signature_ok = false;
    /// The reply's freshness section breaches the client's max-staleness
    /// bound (set_max_staleness): the verdict is fail-stale, not fresh.
    bool stale = false;
    std::optional<QueryReply> reply;
  };
  using Callback = std::function<void(const Outcome&)>;

  /// Sends a query in-band; the callback fires on reply or timeout.
  /// Returns the request id.
  std::uint64_t send_query(const Query& query, Callback callback,
                           sim::Time timeout = 50 * sim::kMillisecond);

  /// Client-side fail-stale knob for one-shot queries: with a bound set
  /// (ns; 0 = off), Outcome.stale flags any reply whose freshness section
  /// reports an unreachable footprint switch or staleness above the bound.
  /// (Subscriptions carry the bound in Expectation::max_staleness instead,
  /// so it is part of the verified property.)
  void set_max_staleness(std::uint64_t bound) { max_staleness_ = bound; }

  using MonitorEvent = ClientProtocol::MonitorEvent;
  using MonitorCallback = std::function<void(const MonitorEvent&)>;

  /// Registers a standing subscription: RVaaS re-verifies the property on
  /// every configuration change it observes and pushes signed
  /// ViolationAlert/AllClear notifications; the first push is the baseline
  /// state (the subscribe acknowledgement). Returns the subscription id.
  std::uint64_t subscribe(const Property& property, MonitorCallback callback,
                          NotifyPolicy policy = NotifyPolicy::VerdictEdges);

  /// Stops a subscription (fire-and-forget; the local callback is dropped
  /// immediately, so a notification already in flight is ignored and
  /// counted in bad_notifications).
  void unsubscribe(std::uint64_t subscription_id);

  using Stats = ClientProtocol::Stats;
  const Stats& stats() const { return protocol_.stats(); }

 private:
  void on_packet(sdn::PortRef at, const sdn::Packet& packet);

  sdn::Network* net_;
  sdn::PortRef access_point_;
  ClientProtocol protocol_;

  struct PendingQuery {
    Callback callback;
    sim::EventId timeout{};
  };
  std::map<std::uint64_t, PendingQuery> pending_;
  std::map<std::uint64_t, MonitorCallback> monitor_callbacks_;
  std::uint64_t max_staleness_ = 0;  ///< 0 = no fail-stale bound
};

}  // namespace rvaas::core
