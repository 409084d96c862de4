// Network integration: functional traces (ground truth), event-driven
// forwarding with latencies, control channels with authentication, counters.

#include <gtest/gtest.h>

#include "sdn/network.hpp"

namespace rvaas::sdn {
namespace {

// Line topology: h10 - s1 - s2 - s3 - h11, one dark port on s2.
struct LineFixture {
  sim::EventLoop loop;
  Topology topo;
  std::unique_ptr<Network> net;
  crypto::SigningKey provider_key;
  crypto::SigningKey rogue_key;

  LineFixture()
      : provider_key(make_key(1)), rogue_key(make_key(2)) {
    topo.add_switch(SwitchId(1), 4);
    topo.add_switch(SwitchId(2), 4);
    topo.add_switch(SwitchId(3), 4);
    topo.add_link({SwitchId(1), PortNo(0)}, {SwitchId(2), PortNo(0)});
    topo.add_link({SwitchId(2), PortNo(1)}, {SwitchId(3), PortNo(0)});
    topo.attach_host(HostId(10), {SwitchId(1), PortNo(1)});
    topo.attach_host(HostId(11), {SwitchId(3), PortNo(1)});
    net = std::make_unique<Network>(loop, topo);
    net->authorize_controller_key(provider_key.verify_key().id());
  }

  static crypto::SigningKey make_key(std::uint64_t seed) {
    util::Rng rng(seed);
    return crypto::SigningKey::generate(rng);
  }

  // Installs a simple forward path h10 -> h11 for IPv4.
  void install_forward_path(Network::ControllerHandle& ctl) {
    FlowMod s1;
    s1.match = Match().in_port(PortNo(1));
    s1.actions = {output(PortNo(0))};
    ctl.flow_mod(SwitchId(1), s1);

    FlowMod s2;
    s2.match = Match().in_port(PortNo(0));
    s2.actions = {output(PortNo(1))};
    ctl.flow_mod(SwitchId(2), s2);

    FlowMod s3;
    s3.match = Match().in_port(PortNo(0));
    s3.actions = {output(PortNo(1))};
    ctl.flow_mod(SwitchId(3), s3);
    loop.run();
  }
};

class NullController : public Controller {
 public:
  explicit NullController(ControllerId id) : id_(id) {}
  ControllerId id() const override { return id_; }

  std::vector<PacketIn> packet_ins;
  std::vector<FlowUpdate> updates;

  void on_packet_in(const PacketIn& msg) override { packet_ins.push_back(msg); }
  void on_flow_update(const FlowUpdate& msg) override { updates.push_back(msg); }

 private:
  ControllerId id_;
};

TEST(NetworkAuth, AuthorizedControllerConnects) {
  LineFixture f;
  NullController ctl(ControllerId(1));
  auto& handle = f.net->attach_controller(ctl, f.provider_key);
  EXPECT_EQ(handle.switches().size(), 3u);
  EXPECT_TRUE(handle.connected(SwitchId(1)));
}

TEST(NetworkAuth, UnauthorizedKeyRefused) {
  LineFixture f;
  NullController rogue(ControllerId(9));
  auto& handle = f.net->attach_controller(rogue, f.rogue_key);
  EXPECT_TRUE(handle.switches().empty());
  EXPECT_EQ(f.net->counters().rejected_handshakes, 3u);
  EXPECT_THROW(handle.flow_mod(SwitchId(1), FlowMod{}),
               util::InvariantViolation);
}

TEST(NetworkAuth, PerSwitchAuthorization) {
  LineFixture f;
  // Authorize the rogue key on switch 2 only.
  f.net->authorize_controller_key(SwitchId(2), f.rogue_key.verify_key().id());
  NullController rogue(ControllerId(9));
  auto& handle = f.net->attach_controller(rogue, f.rogue_key);
  EXPECT_EQ(handle.switches(), std::vector<SwitchId>{SwitchId(2)});
}

TEST(NetworkTrace, ForwardsAlongInstalledPath) {
  LineFixture f;
  NullController ctl(ControllerId(1));
  auto& handle = f.net->attach_controller(ctl, f.provider_key);
  f.install_forward_path(handle);

  const Trajectory t = f.net->trace_from_host(HostId(10), Packet{});
  ASSERT_EQ(t.deliveries.size(), 1u);
  EXPECT_EQ(t.deliveries[0].host, HostId(11));
  EXPECT_EQ(t.deliveries[0].path.size(), 3u);
  EXPECT_EQ(t.hop_count, 3u);
  EXPECT_FALSE(t.loop_detected);
  EXPECT_EQ(t.reached_hosts(), std::vector<HostId>{HostId(11)});
  EXPECT_EQ(t.traversed_switches().size(), 3u);
}

TEST(NetworkTrace, MulticastProducesMultipleDeliveries) {
  LineFixture f;
  NullController ctl(ControllerId(1));
  auto& handle = f.net->attach_controller(ctl, f.provider_key);
  f.install_forward_path(handle);

  // s2 additionally clones to its dark port 2 (exfiltration pattern).
  FlowMod clone;
  clone.priority = 50;
  clone.match = Match().in_port(PortNo(0));
  clone.actions = {output(PortNo(1)), output(PortNo(2))};
  handle.flow_mod(SwitchId(2), clone);
  f.loop.run();

  const Trajectory t = f.net->trace_from_host(HostId(10), Packet{});
  ASSERT_EQ(t.deliveries.size(), 2u);
  // One legitimate delivery, one dark-port copy.
  int dark = 0, hosted = 0;
  for (const auto& d : t.deliveries) {
    if (d.host) {
      ++hosted;
    } else {
      ++dark;
    }
  }
  EXPECT_EQ(hosted, 1);
  EXPECT_EQ(dark, 1);
}

TEST(NetworkTrace, DetectsForwardingLoop) {
  LineFixture f;
  NullController ctl(ControllerId(1));
  auto& handle = f.net->attach_controller(ctl, f.provider_key);
  // s1 <-> s2 ping-pong.
  FlowMod s1;
  s1.match = Match();
  s1.actions = {output(PortNo(0))};
  handle.flow_mod(SwitchId(1), s1);
  FlowMod s2;
  s2.match = Match();
  s2.actions = {output(PortNo(0))};
  handle.flow_mod(SwitchId(2), s2);
  f.loop.run();

  const Trajectory t = f.net->trace_from_host(HostId(10), Packet{});
  EXPECT_TRUE(t.loop_detected);
  EXPECT_TRUE(t.deliveries.empty());
}

TEST(NetworkTrace, TtlBoundedLoopTerminates) {
  LineFixture f;
  NullController ctl(ControllerId(1));
  auto& handle = f.net->attach_controller(ctl, f.provider_key);
  FlowMod s1;
  s1.match = Match();
  s1.actions = {DecTtlAction{}, output(PortNo(0))};
  handle.flow_mod(SwitchId(1), s1);
  FlowMod s2;
  s2.match = Match();
  s2.actions = {DecTtlAction{}, output(PortNo(0))};
  handle.flow_mod(SwitchId(2), s2);
  f.loop.run();

  Packet p;
  p.ttl = 5;
  const Trajectory t = f.net->trace_from_host(HostId(10), p);
  EXPECT_TRUE(t.ttl_expired);
  EXPECT_FALSE(t.loop_detected);  // TTL kills it before the state repeats
  ASSERT_FALSE(t.punts.empty());
  EXPECT_EQ(t.punts.back().reason, PacketInReason::TtlExpired);
}

TEST(NetworkEventDriven, EndToEndDeliveryWithLatency) {
  LineFixture f;
  NullController ctl(ControllerId(1));
  auto& handle = f.net->attach_controller(ctl, f.provider_key);
  f.install_forward_path(handle);

  std::vector<std::pair<PortRef, Packet>> received;
  sim::Time arrival = 0;
  f.net->register_host_receiver(HostId(11), [&](PortRef at, const Packet& p) {
    received.emplace_back(at, p);
    arrival = f.loop.now();
  });

  const sim::Time start = f.loop.now();
  f.net->host_send(HostId(10), {SwitchId(1), PortNo(1)}, Packet{});
  f.loop.run();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].first, (PortRef{SwitchId(3), PortNo(1)}));
  // 2 host NIC hops (5us) + 3 switch delays (2us) + 2 links (10us) = 36us.
  EXPECT_EQ(arrival - start, 36 * sim::kMicrosecond);
  EXPECT_EQ(f.net->counters().host_deliveries, 1u);
  EXPECT_EQ(f.net->counters().data_hops, 2u);
}

TEST(NetworkEventDriven, PacketInReachesAuthenticatedControllersOnly) {
  LineFixture f;
  NullController provider(ControllerId(1));
  NullController rogue(ControllerId(9));
  auto& handle = f.net->attach_controller(provider, f.provider_key);
  f.net->attach_controller(rogue, f.rogue_key);  // refused everywhere

  FlowMod punt;
  punt.match = Match();
  punt.actions = {to_controller()};
  handle.flow_mod(SwitchId(1), punt);
  f.loop.run();

  f.net->host_send(HostId(10), {SwitchId(1), PortNo(1)}, Packet{});
  f.loop.run();

  EXPECT_EQ(provider.packet_ins.size(), 1u);
  EXPECT_TRUE(rogue.packet_ins.empty());
  EXPECT_EQ(provider.packet_ins[0].sw, SwitchId(1));
}

TEST(NetworkEventDriven, PacketOutInjectsAtSwitch) {
  LineFixture f;
  NullController ctl(ControllerId(1));
  auto& handle = f.net->attach_controller(ctl, f.provider_key);

  std::vector<Packet> received;
  f.net->register_host_receiver(HostId(11), [&](PortRef, const Packet& p) {
    received.push_back(p);
  });

  PacketOut out;
  out.sw = SwitchId(3);
  out.actions = {output(PortNo(1))};
  out.packet.hdr.ip_dst = 42;
  handle.packet_out(out);
  f.loop.run();

  ASSERT_EQ(received.size(), 1u);
  EXPECT_EQ(received[0].hdr.ip_dst, 42u);
  EXPECT_EQ(f.net->counters().packet_outs, 1u);
}

TEST(NetworkEventDriven, FlowModResultRoundTrip) {
  LineFixture f;
  NullController ctl(ControllerId(1));
  auto& handle = f.net->attach_controller(ctl, f.provider_key);

  std::optional<FlowModResult> got;
  FlowMod mod;
  mod.actions = {output(PortNo(0))};
  const sim::Time start = f.loop.now();
  sim::Time reply_time = 0;
  handle.flow_mod(SwitchId(1), mod, [&](SwitchId, const FlowModResult& r) {
    got = r;
    reply_time = f.loop.now();
  });
  f.loop.run();

  ASSERT_TRUE(got.has_value());
  EXPECT_TRUE(got->ok());
  // Round trip = 2 * control latency.
  EXPECT_EQ(reply_time - start, 2 * sdn::kControlLatency);
}

TEST(NetworkEventDriven, StatsRequestReturnsDump) {
  LineFixture f;
  NullController ctl(ControllerId(1));
  auto& handle = f.net->attach_controller(ctl, f.provider_key);
  f.install_forward_path(handle);

  std::optional<StatsReply> reply;
  handle.request_stats(SwitchId(2), [&](const StatsReply& r) { reply = r; });
  f.loop.run();

  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sw, SwitchId(2));
  EXPECT_EQ(reply->entries.size(), 1u);
}

TEST(NetworkEventDriven, FlowMonitorDeliversUpdates) {
  LineFixture f;
  NullController provider(ControllerId(1));
  NullController monitor(ControllerId(2));
  // Both keys authorized; monitor subscribes to flow updates.
  const auto monitor_key = LineFixture::make_key(7);
  f.net->authorize_controller_key(monitor_key.verify_key().id());
  auto& phandle = f.net->attach_controller(provider, f.provider_key);
  auto& mhandle = f.net->attach_controller(monitor, monitor_key);
  for (const SwitchId sw : mhandle.switches()) {
    mhandle.subscribe_flow_monitor(sw);
  }

  FlowMod mod;
  mod.actions = {output(PortNo(0))};
  phandle.flow_mod(SwitchId(2), mod);
  f.loop.run();

  ASSERT_EQ(monitor.updates.size(), 1u);
  EXPECT_EQ(monitor.updates[0].sw, SwitchId(2));
  EXPECT_EQ(monitor.updates[0].kind, FlowUpdateKind::Added);
  EXPECT_EQ(monitor.updates[0].entry.owner, ControllerId(1));
}

TEST(NetworkEventDriven, TableMissCountsDrop) {
  LineFixture f;
  f.net->host_send(HostId(10), {SwitchId(1), PortNo(1)}, Packet{});
  f.loop.run();
  EXPECT_EQ(f.net->counters().table_miss_drops, 1u);
}

TEST(NetworkEventDriven, HostSendValidatesAttachment) {
  LineFixture f;
  EXPECT_THROW(f.net->host_send(HostId(10), {SwitchId(3), PortNo(1)}, Packet{}),
               util::InvariantViolation);
}

}  // namespace
}  // namespace rvaas::sdn
