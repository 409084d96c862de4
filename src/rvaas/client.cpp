#include "rvaas/client.hpp"

#include "crypto/hmac.hpp"
#include "util/ensure.hpp"

namespace rvaas::core {

// --- ClientProtocol ---

ClientProtocol::ClientProtocol(util::Rng rng)
    : rng_(std::move(rng)),
      key_(crypto::SigningKey::generate(rng_)),
      box_(crypto::BoxOpener::generate(rng_)) {}

void ClientProtocol::begin_session(sdn::HostId host,
                                   const control::HostAddress& address) {
  end_session();
  host_ = host;
  address_ = address;
  next_request_id_ = (static_cast<std::uint64_t>(host.value) << 32) | 1;
}

void ClientProtocol::end_session() {
  subscriptions_.clear();
  awaiting_.clear();
}

void ClientProtocol::trust_rvaas(crypto::VerifyKey rvaas_key,
                                 crypto::BigUInt rvaas_box_pub) {
  rvaas_key_ = std::move(rvaas_key);
  rvaas_box_pub_ = std::move(rvaas_box_pub);
}

bool ClientProtocol::verify_attestation(const enclave::Quote& quote,
                                        const crypto::VerifyKey& ias_root,
                                        const enclave::Measurement& expected,
                                        const crypto::VerifyKey& rvaas_key,
                                        const crypto::BigUInt& rvaas_box_pub) {
  ++stats_.crypto_ops;
  if (!enclave::AttestationService::verify(quote, ias_root, expected)) {
    return false;
  }
  // The quote's report data must bind exactly the keys we are about to pin.
  const crypto::Digest32 binding =
      enclave::bind_keys(rvaas_key, rvaas_box_pub);
  if (!crypto::digest_equal(binding, quote.report.report_data)) return false;
  trust_rvaas(rvaas_key, rvaas_box_pub);
  return true;
}

void ClientProtocol::require_trust() const {
  util::ensure(rvaas_box_pub_.has_value(),
               "client has not established trust in RVaaS");
}

ClientProtocol::Sealed ClientProtocol::seal_query(const Query& query) {
  require_trust();
  QueryRequest request;
  request.request_id = next_request_id_++;
  request.client = host_;
  request.query = query;

  ++stats_.queries_sent;
  ++stats_.crypto_ops;  // seal
  awaiting_.insert(request.request_id);
  return {request.request_id,
          inband::make_request_packet(address_, request, *rvaas_box_pub_,
                                      rng_)};
}

ClientProtocol::Sealed ClientProtocol::seal_subscribe(const Property& property,
                                                      NotifyPolicy policy) {
  require_trust();
  SubscribeRequest request;
  request.subscription_id = next_request_id_++;
  request.client = host_;
  request.policy = policy;
  request.property = property;
  // The request-id counter doubles as the per-client freshness clock (it
  // only ever advances).
  request.freshness = next_request_id_++;

  ++stats_.subscribes_sent;
  stats_.crypto_ops += 2;  // sign + seal
  subscriptions_[request.subscription_id] = Subscription{property, 0};
  return {request.subscription_id,
          inband::make_subscribe_packet(address_, request, key_,
                                        *rvaas_box_pub_, rng_)};
}

std::optional<sdn::Packet> ClientProtocol::seal_unsubscribe(
    std::uint64_t subscription_id) {
  if (subscriptions_.erase(subscription_id) == 0) return std::nullopt;
  require_trust();
  SubscribeRequest request;
  request.subscription_id = subscription_id;
  request.client = host_;
  request.unsubscribe = true;
  request.freshness = next_request_id_++;

  ++stats_.unsubscribes_sent;
  stats_.crypto_ops += 2;  // sign + seal
  return inband::make_subscribe_packet(address_, request, key_,
                                       *rvaas_box_pub_, rng_);
}

bool ClientProtocol::expire(std::uint64_t request_id) {
  if (awaiting_.erase(request_id) == 0) return false;
  ++stats_.timeouts;
  return true;
}

ClientProtocol::Inbound ClientProtocol::receive(const sdn::Packet& packet) {
  Inbound in;
  const auto tag = inband::classify(packet);
  if (!tag || !rvaas_key_) return in;

  if (*tag == inband::Tag::AuthRequest) {
    ++stats_.crypto_ops;  // verify
    const auto req = inband::verify_auth_request(packet, *rvaas_key_);
    if (!req) return in;
    // Answer with a signed publication of our identity.
    inband::AuthReply reply;
    reply.request_id = req->request_id;
    reply.nonce = req->nonce;
    reply.client = host_;
    ++stats_.auth_requests_answered;
    ++stats_.crypto_ops;  // sign
    in.answer = inband::make_auth_reply(address_, reply, key_);
  } else if (*tag == inband::Tag::Notify) {
    in.event = accept_notification(packet);
  } else if (*tag == inband::Tag::Reply) {
    ++stats_.crypto_ops;  // open + verify
    auto opened = inband::open_reply(packet, box_, *rvaas_key_);
    if (!opened) {
      ++stats_.bad_replies;
      return in;
    }
    if (awaiting_.erase(opened->reply.request_id) == 0) return in;
    ++stats_.replies_received;
    if (!opened->signature_ok) ++stats_.bad_replies;
    in.reply = std::move(opened);
  }
  return in;
}

std::optional<ClientProtocol::MonitorEvent>
ClientProtocol::accept_notification(const sdn::Packet& packet) {
  ++stats_.crypto_ops;  // open + verify
  const auto opened = inband::open_notify(packet, box_, *rvaas_key_);
  const auto it = opened ? subscriptions_.find(
                               opened->notification.subscription_id)
                         : subscriptions_.end();
  if (it == subscriptions_.end()) {
    ++stats_.bad_notifications;  // undecryptable, unsubscribed or never ours
    return std::nullopt;
  }
  const Notification& n = opened->notification;
  Subscription& sub = it->second;
  if (!opened->signature_ok || n.sequence <= sub.last_sequence ||
      n.property_fingerprint != sub.property.fingerprint()) {
    // Forged, tampered, replayed/reordered, or answering a different
    // property than the one subscribed: never surface it.
    ++stats_.bad_notifications;
    return std::nullopt;
  }
  sub.last_sequence = n.sequence;
  ++stats_.notifications_received;
  switch (n.kind) {
    case NotificationKind::ViolationAlert:
      ++stats_.alerts_received;
      break;
    case NotificationKind::AllClear:
      ++stats_.all_clears_received;
      break;
    case NotificationKind::VerificationDegraded:
      // Not a verdict: the footprint lost a switch and RVaaS is telling
      // us it cannot verify freshly right now. A normal push resumes on
      // heal (commit() owes it).
      ++stats_.degraded_received;
      break;
  }

  MonitorEvent event;
  event.subscription_id = n.subscription_id;
  event.signature_ok = opened->signature_ok;
  event.kind = n.kind;
  event.sequence = n.sequence;
  event.epoch = n.epoch;
  event.reply = n.reply;
  event.verdict = evaluate_reply(n.reply, sub.property.expect);
  return event;
}

// --- ClientAgent: the in-band transport ---

ClientAgent::ClientAgent(sdn::HostId host, sdn::Network& net,
                         const control::HostAddress& address, util::Rng rng)
    : net_(&net), protocol_(std::move(rng)) {
  protocol_.begin_session(host, address);
  const auto ports = net.topology().host_ports(host);
  util::ensure(!ports.empty(), "client host has no access point");
  access_point_ = ports.front();
  net.register_host_receiver(host, [this](sdn::PortRef at,
                                          const sdn::Packet& packet) {
    on_packet(at, packet);
  });
}

std::uint64_t ClientAgent::send_query(const Query& query, Callback callback,
                                      sim::Time timeout) {
  const auto [id, packet] = protocol_.seal_query(query);
  net_->host_send(host(), access_point_, packet);

  PendingQuery pending;
  pending.callback = std::move(callback);
  pending.timeout = net_->loop().schedule_after(timeout, [this, id] {
    if (!protocol_.expire(id)) return;
    Outcome outcome;
    outcome.timed_out = true;  // suppression / loss indicator
    const auto it = pending_.find(id);
    auto callback = std::move(it->second.callback);
    pending_.erase(it);
    callback(outcome);
  });
  pending_.emplace(id, std::move(pending));
  return id;
}

std::uint64_t ClientAgent::subscribe(const Property& property,
                                     MonitorCallback callback,
                                     NotifyPolicy policy) {
  const auto [id, packet] = protocol_.seal_subscribe(property, policy);
  monitor_callbacks_[id] = std::move(callback);
  net_->host_send(host(), access_point_, packet);
  return id;
}

void ClientAgent::unsubscribe(std::uint64_t subscription_id) {
  monitor_callbacks_.erase(subscription_id);
  if (const auto packet = protocol_.seal_unsubscribe(subscription_id)) {
    net_->host_send(host(), access_point_, *packet);
  }
}

void ClientAgent::on_packet(sdn::PortRef at, const sdn::Packet& packet) {
  ClientProtocol::Inbound in = protocol_.receive(packet);
  if (in.answer) net_->host_send(host(), at, *in.answer);

  if (in.event) {
    // Copy out: the callback may unsubscribe (erasing its entry) from inside.
    const MonitorCallback callback =
        monitor_callbacks_.at(in.event->subscription_id);
    callback(*in.event);
  }

  if (in.reply) {
    const auto it = pending_.find(in.reply->reply.request_id);
    net_->loop().cancel(it->second.timeout);
    Outcome outcome;
    outcome.signature_ok = in.reply->signature_ok;
    // Fail-stale: surface a freshness breach, never absorb it silently.
    const FreshnessInfo& freshness = in.reply->reply.freshness;
    outcome.stale = max_staleness_ > 0 &&
                    (!freshness.unreachable.empty() ||
                     freshness.max_staleness > max_staleness_);
    outcome.reply = std::move(in.reply->reply);
    auto callback = std::move(it->second.callback);
    pending_.erase(it);
    callback(outcome);
  }
}

}  // namespace rvaas::core
