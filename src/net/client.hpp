#pragma once
// WireClient: a blocking TCP client for the RVaaS wire front-end. It is a
// transport over core::ClientProtocol (rvaas/client.hpp), the same protocol
// core as the in-band core::ClientAgent: keys, request ids, envelopes, auth
// answers, reply verification and push guards all live there. This class
// owns only the socket, the framing, the blocking waits and the queue of
// pushes that arrive during a query. A wire session is therefore
// indistinguishable from an in-process agent to the controller, and replies
// are byte-identical (pinned by tests/test_net.cpp).
//
// Blocking by design: one client = one session = one thread. The bench and
// the tools run many of these in parallel; concurrency lives in the caller.

#include <cstdint>
#include <deque>
#include <optional>
#include <string>

#include "net/framing.hpp"
#include "rvaas/client.hpp"

namespace rvaas::net {

struct WireClientConfig {
  std::string server = "127.0.0.1";
  std::uint16_t port = 0;
  /// Host slot to claim; 0 = any free slot.
  std::uint32_t requested_host = 0;
  /// Expected enclave identity for attestation verification.
  std::string enclave_name = "rvaas";
  std::string enclave_version = "1.0";
  /// Verify the WELCOME quote before trusting the service keys. Off only
  /// for adversarial tests that talk to the socket without a real enclave.
  bool verify_attestation = true;
  /// Derives this client's signing/sealing keys.
  std::uint64_t seed = 0x5eed;
};

class WireClient {
 public:
  explicit WireClient(WireClientConfig config);
  ~WireClient();

  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  /// Connects, handshakes and (unless disabled) verifies attestation.
  /// Returns the WELCOME status; anything but Ok leaves the client closed.
  WelcomeStatus connect();

  bool connected() const { return fd_ >= 0 && hello_done_; }
  void close();

  /// This session's assigned identity (valid after a successful connect()).
  sdn::HostId host() const { return protocol_.host(); }
  sdn::PortRef access_point() const { return access_point_; }

  struct Outcome {
    bool timed_out = false;
    bool signature_ok = false;
    std::optional<core::QueryReply> reply;
  };
  /// One-shot query, blocking up to `timeout_ms`. Auth requests arriving
  /// while waiting are answered inline (the agent contract); notifications
  /// are buffered for wait_notification().
  Outcome query(const core::Query& query, int timeout_ms = 5000);

  /// Registers a standing subscription; returns the subscription id.
  /// Requires a session that has pinned the RVaaS keys (util::ensure).
  std::uint64_t subscribe(const core::Property& property,
                          core::NotifyPolicy policy =
                              core::NotifyPolicy::VerdictEdges);
  void unsubscribe(std::uint64_t subscription_id);

  /// A verified push; `verdict` is the local re-check against the
  /// subscribed expectation.
  using Event = core::ClientProtocol::MonitorEvent;
  /// Next verified push (signature + replay + fingerprint checked), waiting
  /// up to `timeout_ms`. Auth requests are answered inline here too.
  std::optional<Event> wait_notification(int timeout_ms = 5000);

  /// Sends raw bytes down the socket verbatim (adversarial tests only).
  bool send_raw(std::span<const std::uint8_t> bytes);

  using Stats = core::ClientProtocol::Stats;
  const Stats& stats() const { return protocol_.stats(); }

 private:
  /// Pumps the socket until a frame is complete or the deadline passes.
  std::optional<util::Bytes> read_frame(int timeout_ms);
  bool send_frame(std::span<const std::uint8_t> payload);
  /// Hands one inbound frame to the protocol core, sending back any auth
  /// answer it produces.
  core::ClientProtocol::Inbound consume(std::span<const std::uint8_t> frame);

  WireClientConfig config_;
  core::ClientProtocol protocol_;

  int fd_ = -1;
  bool hello_done_ = false;
  FrameDecoder decoder_;
  sdn::PortRef access_point_{};
  std::deque<Event> event_queue_;  ///< pushes that arrived during query()
};

}  // namespace rvaas::net
