// The client protocol core (core::ClientProtocol) behind both ClientAgent
// and net::WireClient: the guards every inbound packet must pass, crafted
// here packet by packet, and pins proving the seeded key/seal derivation is
// unchanged.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <thread>

#include "crypto/sha256.hpp"
#include "net/client.hpp"
#include "util/ensure.hpp"
#include "util/hex.hpp"
#include "workload/scenario.hpp"
#include "workload/topo_gen.hpp"

namespace rvaas::core {
namespace {

std::string digest_hex(std::span<const std::uint8_t> bytes) {
  return util::to_hex(crypto::sha256(bytes));
}

/// A client core with a session and pinned keys, plus the enclave it trusts
/// (to craft genuine pushes and auth requests) and a foreign one.
struct Harness {
  util::Rng rng{4242};
  enclave::Enclave enclave{"rvaas", "1.0", rng};
  enclave::Enclave impostor{"rvaas", "1.0", rng};
  ClientProtocol client{util::Rng(0x5eed)};
  Property property;

  Harness() {
    client.begin_session(sdn::HostId(7),
                         control::HostAddress{0x020000000007ULL, 0x0a000007});
    client.trust_rvaas(enclave.verify_key(), enclave.box_public());
    property.kind = QueryKind::ReachableEndpoints;
  }

  std::uint64_t subscribe() {
    return client.seal_subscribe(property, NotifyPolicy::EveryChange).id;
  }

  sdn::Packet push(std::uint64_t subscription_id, std::uint64_t sequence,
                   const enclave::Enclave* signer = nullptr,
                   std::uint64_t fingerprint = 0) {
    Notification n;
    n.subscription_id = subscription_id;
    n.sequence = sequence;
    n.kind = NotificationKind::AllClear;
    n.property_fingerprint = fingerprint ? fingerprint : property.fingerprint();
    return inband::make_notify_packet(n, signer ? *signer : enclave,
                                      client.box_public(), rng);
  }

  /// Feeds one packet; true if a push came out.
  bool surfaces(const sdn::Packet& packet) {
    return client.receive(packet).event.has_value();
  }
};

TEST(ClientProtocol, PushGuardsRejectReplayAndReorder) {
  Harness h;
  const std::uint64_t id = h.subscribe();
  EXPECT_TRUE(h.surfaces(h.push(id, 1)));
  EXPECT_FALSE(h.surfaces(h.push(id, 1)));  // replayed
  EXPECT_EQ(h.client.stats().bad_notifications, 1u);
  EXPECT_TRUE(h.surfaces(h.push(id, 3)));   // gaps are fine
  EXPECT_FALSE(h.surfaces(h.push(id, 2)));  // reordered (lower)
  EXPECT_EQ(h.client.stats().bad_notifications, 2u);
  EXPECT_EQ(h.client.stats().notifications_received, 2u);
}

TEST(ClientProtocol, PushGuardsRejectWrongProperty) {
  Harness h;
  const std::uint64_t id = h.subscribe();
  EXPECT_FALSE(h.surfaces(
      h.push(id, 1, nullptr, h.property.fingerprint() ^ 1)));
  EXPECT_EQ(h.client.stats().bad_notifications, 1u);
  EXPECT_TRUE(h.surfaces(h.push(id, 1)));  // the sequence was not consumed
}

TEST(ClientProtocol, PushGuardsRejectForeignSigner) {
  Harness h;
  const std::uint64_t id = h.subscribe();
  EXPECT_FALSE(h.surfaces(h.push(id, 1, &h.impostor)));
  EXPECT_EQ(h.client.stats().bad_notifications, 1u);
  EXPECT_EQ(h.client.stats().notifications_received, 0u);
}

TEST(ClientProtocol, PushGuardsRejectUnknownSubscription) {
  Harness h;
  const std::uint64_t id = h.subscribe();
  EXPECT_FALSE(h.surfaces(h.push(id + 100, 1)));  // never ours
  ASSERT_TRUE(h.client.seal_unsubscribe(id).has_value());
  EXPECT_FALSE(h.surfaces(h.push(id, 1)));  // unsubscribed while in flight
  EXPECT_EQ(h.client.stats().bad_notifications, 2u);
  EXPECT_EQ(h.client.stats().notifications_received, 0u);
}

TEST(ClientProtocol, AcceptedPushCarriesLocalVerdict) {
  Harness h;
  const std::uint64_t id = h.subscribe();
  const auto event = h.client.receive(h.push(id, 1)).event;
  ASSERT_TRUE(event.has_value());
  EXPECT_EQ(event->subscription_id, id);
  EXPECT_TRUE(event->signature_ok);
  EXPECT_EQ(event->verdict.ok,
            evaluate_reply(QueryReply{}, h.property.expect).ok);
  EXPECT_EQ(h.client.stats().all_clears_received, 1u);
}

TEST(ClientProtocol, AnswersOnlyAuthRequestsFromTheTrustedEnclave) {
  Harness h;
  inband::AuthRequest req;
  req.request_id = 5;
  req.nonce = 0xabc;
  EXPECT_FALSE(h.client.receive(inband::make_auth_request(req, h.impostor))
                   .answer.has_value());
  EXPECT_EQ(h.client.stats().auth_requests_answered, 0u);

  const auto answer =
      h.client.receive(inband::make_auth_request(req, h.enclave)).answer;
  ASSERT_TRUE(answer.has_value());
  const auto parsed = inband::parse_auth_reply(*answer);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->first.nonce, req.nonce);
  EXPECT_EQ(parsed->first.client, sdn::HostId(7));
  EXPECT_TRUE(h.client.verify_key().verify(parsed->first.signing_payload(),
                                           parsed->second));
  EXPECT_EQ(h.client.stats().auth_requests_answered, 1u);
}

TEST(ClientProtocol, SurfacesOnlyRepliesItAwaits) {
  Harness h;
  const std::uint64_t id = h.client.seal_query(Query{}).id;
  QueryReply reply;
  reply.request_id = id + 1;  // nobody asked
  EXPECT_FALSE(h.client
                   .receive(inband::make_reply_packet(reply, h.enclave,
                                                      h.client.box_public(),
                                                      h.rng))
                   .reply.has_value());
  reply.request_id = id;
  const sdn::Packet answer = inband::make_reply_packet(
      reply, h.enclave, h.client.box_public(), h.rng);
  const auto got = h.client.receive(answer).reply;
  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->signature_ok);
  EXPECT_FALSE(h.client.receive(answer).reply.has_value());  // replayed
  EXPECT_FALSE(h.client.expire(id));  // answered, so not a timeout
  EXPECT_EQ(h.client.stats().replies_received, 1u);
  EXPECT_EQ(h.client.stats().timeouts, 0u);
}

TEST(ClientProtocol, NothingIsSealedOrAnsweredBeforeTrust) {
  util::Rng rng(1);
  const enclave::Enclave enclave("rvaas", "1.0", rng);
  ClientProtocol client{util::Rng(2)};
  client.begin_session(sdn::HostId(7), control::HostAddress{});
  EXPECT_THROW(client.seal_query(Query{}), util::InvariantViolation);
  EXPECT_THROW(client.seal_subscribe(Property{}, NotifyPolicy::EveryChange),
               util::InvariantViolation);
  inband::AuthRequest req;
  EXPECT_FALSE(
      client.receive(inband::make_auth_request(req, enclave)).answer);
  EXPECT_EQ(client.stats().crypto_ops, 0u);
}

/// What a WireClient puts on the wire in its first session, captured by a
/// bare loopback listener standing in for the server: the HELLO (its public
/// identity), then one sealed subscribe and one sealed query.
struct FirstSession {
  net::WireHello hello;
  util::Bytes subscribe_frame;
  util::Bytes query_frame;
};

FirstSession capture_first_session(std::uint64_t seed) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), len), 0);
  EXPECT_EQ(::listen(listener, 1), 0);
  EXPECT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);

  net::WireClientConfig config;
  config.port = ntohs(addr.sin_port);
  config.seed = seed;
  config.verify_attestation = false;  // the stand-in has no enclave quote
  net::WireClient client(config);
  std::thread session([&] {
    ASSERT_EQ(client.connect(), net::WelcomeStatus::Ok);
    Property property;
    property.kind = QueryKind::Isolation;
    client.subscribe(property, NotifyPolicy::EveryChange);
    Query query;
    query.kind = QueryKind::ReachableEndpoints;
    EXPECT_TRUE(client.query(query, 200).timed_out);  // never answered
  });

  const int conn = ::accept(listener, nullptr, nullptr);
  net::FrameDecoder decoder;
  const auto next_frame = [&]() -> util::Bytes {
    while (true) {
      if (auto frame = decoder.take()) return *frame;
      std::uint8_t buf[4096];
      const ssize_t n = ::read(conn, buf, sizeof buf);
      if (n <= 0) return {};
      decoder.feed({buf, static_cast<std::size_t>(n)});
    }
  };
  FirstSession out;
  out.hello = net::WireHello::decode(next_frame()).value_or(net::WireHello{});

  util::Rng rng(99);
  const enclave::Enclave enclave("rvaas", "1.0", rng);
  net::WireWelcome welcome;
  welcome.host = sdn::HostId(7);
  welcome.address = control::HostAddress{0x020000000007ULL, 0x0a000007};
  welcome.access_point = sdn::PortRef{sdn::SwitchId(1), sdn::PortNo(3)};
  welcome.rvaas_key = enclave.verify_key();
  welcome.rvaas_box_pub = enclave.box_public();
  const util::Bytes frame = net::encode_frame(welcome.encode());
  EXPECT_EQ(::write(conn, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
  out.subscribe_frame = next_frame();
  out.query_frame = next_frame();

  session.join();
  ::close(conn);
  ::close(listener);
  return out;
}

// Pinned at the commit before the client protocol core was extracted: the
// seeded rng must draw the signing key, then the box key, then one draw per
// seal, exactly as both clients always have.
TEST(KeyDerivationPin, WireClientDefaultSeed) {
  const FirstSession s = capture_first_session(0x5eed);
  EXPECT_EQ(digest_hex(s.hello.client_key.serialize()),
            "d16ea2d84c15ef0124fe06023819e7f4474afa4bb5a5eabed3cd32c8aafb77d7");
  EXPECT_EQ(digest_hex(s.hello.client_box_pub.to_bytes()),
            "6b620b17f14330f4fa7ae8de68f625d20ef4f8845adf83d24c8de40a46d3b8bf");
  EXPECT_EQ(digest_hex(s.subscribe_frame),
            "bafb9be987d98ea972c41f1e2277bf04fe097cfcb95aefabaafe6cd109ab956c");
  EXPECT_EQ(digest_hex(s.query_frame),
            "0ef2af997322692058e38a3784c0d046347a27ed956d5a31b69776c131352173");
}

TEST(KeyDerivationPin, ScenarioAgent) {
  workload::ScenarioConfig config;
  config.generated = workload::linear_fanout(3, 2);
  config.seed = 20160628;
  workload::ScenarioRuntime runtime(std::move(config));
  const ClientAgent& agent = runtime.client(runtime.hosts().front());
  EXPECT_EQ(digest_hex(agent.verify_key().serialize()),
            "a6ce723c1a4a50e1e6fb6977cba06ba3e06c1819f7bd5c33b121290b34cdbab8");
  EXPECT_EQ(digest_hex(agent.box_public().to_bytes()),
            "367db319ff626f527b8efab86e676c7465e8a57c6d622446233da55f1a7267e2");
}

}  // namespace
}  // namespace rvaas::core
