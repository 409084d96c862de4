#include "sdn/network.hpp"

#include <algorithm>
#include <deque>
#include <set>

#include "util/ensure.hpp"

namespace rvaas::sdn {

std::vector<HostId> Trajectory::reached_hosts() const {
  std::vector<HostId> out;
  for (const auto& d : deliveries) {
    if (d.host && std::find(out.begin(), out.end(), *d.host) == out.end()) {
      out.push_back(*d.host);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<SwitchId> Trajectory::traversed_switches() const {
  std::set<SwitchId> seen;
  for (const auto& d : deliveries) {
    for (const auto& hop : d.path) seen.insert(hop.in.sw);
  }
  return {seen.begin(), seen.end()};
}

Network::Network(sim::EventLoop& loop, Topology topology)
    : loop_(loop), topo_(std::move(topology)) {
  for (const SwitchId id : topo_.switches()) {
    switches_[id] = std::make_unique<SwitchSim>(id, topo_.num_ports(id));
  }
}

SwitchSim& Network::switch_sim(SwitchId id) {
  const auto it = switches_.find(id);
  util::ensure(it != switches_.end(), "unknown switch");
  return *it->second;
}

const SwitchSim& Network::switch_sim(SwitchId id) const {
  const auto it = switches_.find(id);
  util::ensure(it != switches_.end(), "unknown switch");
  return *it->second;
}

void Network::authorize_controller_key(const crypto::KeyId& key) {
  for (const SwitchId id : topo_.switches()) {
    authorize_controller_key(id, key);
  }
}

void Network::authorize_controller_key(SwitchId sw, const crypto::KeyId& key) {
  util::ensure(topo_.has_switch(sw), "unknown switch");
  auto& keys = authorized_keys_[sw];
  if (std::find(keys.begin(), keys.end(), key) == keys.end()) {
    keys.push_back(key);
  }
}

Network::ControllerHandle& Network::attach_controller(
    Controller& controller, const crypto::SigningKey& key) {
  auto slot = std::make_unique<ControllerSlot>();
  slot->controller = &controller;
  slot->handle.reset(new ControllerHandle(*this, controller.id()));

  // Signed challenge handshake against every switch.
  for (const SwitchId sw : topo_.switches()) {
    const std::uint64_t nonce = handshake_rng_.next_u64();
    ChannelHandshake hs;
    hs.controller = controller.id();
    hs.key = key.verify_key();
    hs.proof =
        key.sign(ChannelHandshake::challenge_bytes(controller.id(), sw, nonce));
    const auto it = authorized_keys_.find(sw);
    const bool ok =
        it != authorized_keys_.end() && verify_handshake(hs, sw, nonce, it->second);
    slot->authenticated[sw] = ok;
    if (!ok) ++counters_.rejected_handshakes;
  }

  slots_.push_back(std::move(slot));
  return *slots_.back()->handle;
}

Network::ControllerSlot& Network::slot_of(ControllerId id) {
  for (auto& slot : slots_) {
    if (slot->controller->id() == id) return *slot;
  }
  util::unreachable("unknown controller");
}

// --- ControllerHandle ---

std::vector<SwitchId> Network::ControllerHandle::switches() const {
  std::vector<SwitchId> out;
  for (const auto& [sw, ok] : net_->slot_of(id_).authenticated) {
    if (ok) out.push_back(sw);
  }
  return out;
}

bool Network::ControllerHandle::connected(SwitchId sw) const {
  const auto& auth = net_->slot_of(id_).authenticated;
  const auto it = auth.find(sw);
  return it != auth.end() && it->second;
}

void Network::ControllerHandle::flow_mod(SwitchId sw, const FlowMod& mod,
                                         FlowModCallback cb) {
  util::ensure(connected(sw), "controller has no channel to switch");
  ++net_->counters_.flow_mods;
  Network& net = *net_;
  const ControllerId id = id_;
  FaultPlane* fp = net.fault_plane_for(id_);
  // State-changing messages are dropped/delayed but never duplicated: a
  // re-applied Add would fork the data plane away from ground truth.
  const FaultPlane::Delivery req =
      fp ? fp->apply(sw, FaultDirection::ToSwitch, net.loop_.now())
         : FaultPlane::Delivery{};
  if (req.drop) return;
  const std::uint64_t gen = fp ? fp->agent_generation(sw) : 0;
  net.loop_.schedule_after(kControlLatency + req.extra_delay,
                           [&net, id, sw, mod, cb, fp, gen] {
    const FlowModResult result = net.switch_sim(sw).apply_flow_mod(id, mod);
    if (cb) {
      const FaultPlane::Delivery rep =
          fp ? fp->apply(sw, FaultDirection::FromSwitch, net.loop_.now())
             : FaultPlane::Delivery{};
      if (rep.drop) return;
      net.loop_.schedule_after(kControlLatency + rep.extra_delay,
                               [cb, sw, result, fp, gen] {
        // A crashed/restarted control agent voids replies it never sent.
        if (fp && fp->agent_generation(sw) != gen) return;
        cb(sw, result);
      });
    }
  });
}

void Network::ControllerHandle::meter_mod(SwitchId sw, const MeterMod& mod) {
  util::ensure(connected(sw), "controller has no channel to switch");
  ++net_->counters_.meter_mods;
  Network& net = *net_;
  const ControllerId id = id_;
  FaultPlane* fp = net.fault_plane_for(id_);
  const FaultPlane::Delivery req =
      fp ? fp->apply(sw, FaultDirection::ToSwitch, net.loop_.now())
         : FaultPlane::Delivery{};
  if (req.drop) return;
  net.loop_.schedule_after(kControlLatency + req.extra_delay,
                           [&net, id, sw, mod] {
                             net.switch_sim(sw).apply_meter_mod(id, mod);
                           });
}

void Network::ControllerHandle::packet_out(const PacketOut& msg) {
  util::ensure(connected(msg.sw), "controller has no channel to switch");
  ++net_->counters_.packet_outs;
  Network& net = *net_;
  net.loop_.schedule_after(kControlLatency, [&net, msg] {
    // Packet-out runs the action list directly; in_port is the virtual
    // controller port (we use the max port number + 1).
    const PortNo ctrl_port(net.switch_sim(msg.sw).num_ports());
    const PipelineOutput out = net.switch_sim(msg.sw).run_actions(
        msg.actions, ctrl_port, msg.packet, /*cookie=*/0);
    net.route_outputs(msg.sw, out, kMaxHops);
  });
}

namespace {
/// Retransmit gap for a duplicated read-only message: the second copy lands
/// this much after the first. Fixed (not drawn) so one apply() call fully
/// determines a message's fate and traces stay replay-stable.
constexpr sim::Time kDuplicateGap = 50 * sim::kMicrosecond;
}  // namespace

void Network::ControllerHandle::request_stats(SwitchId sw, StatsCallback cb) {
  util::ensure(connected(sw), "controller has no channel to switch");
  util::ensure(static_cast<bool>(cb), "stats request needs a callback");
  ++net_->counters_.stats_requests;
  Network& net = *net_;
  FaultPlane* fp = net.fault_plane_for(id_);
  const FaultPlane::Delivery req =
      fp ? fp->apply(sw, FaultDirection::ToSwitch, net.loop_.now())
         : FaultPlane::Delivery{};
  if (req.drop) return;
  const std::uint64_t gen = fp ? fp->agent_generation(sw) : 0;
  const auto serve = [&net, sw, cb, fp, gen] {
    const StatsReply reply = net.switch_sim(sw).stats();
    const FaultPlane::Delivery rep =
        fp ? fp->apply(sw, FaultDirection::FromSwitch, net.loop_.now())
           : FaultPlane::Delivery{};
    if (rep.drop) return;
    const auto deliver = [cb, reply, fp, sw, gen] {
      // Voided if the switch's control agent restarted since the request.
      if (fp && fp->agent_generation(sw) != gen) return;
      cb(reply);
    };
    net.loop_.schedule_after(kControlLatency + rep.extra_delay, deliver);
    if (rep.duplicate) {
      net.loop_.schedule_after(
          kControlLatency + rep.extra_delay + kDuplicateGap, deliver);
    }
  };
  net.loop_.schedule_after(kControlLatency + req.extra_delay, serve);
  // A duplicated request produces a second, later reply; reconciles are
  // idempotent so only the extra traffic is observable.
  if (req.duplicate) {
    net.loop_.schedule_after(
        kControlLatency + req.extra_delay + kDuplicateGap, serve);
  }
}

void Network::ControllerHandle::subscribe_flow_monitor(SwitchId sw) {
  util::ensure(connected(sw), "controller has no channel to switch");
  Network& net = *net_;
  Controller* controller = net.slot_of(id_).controller;
  const ControllerId id = id_;
  net.switch_sim(sw).subscribe_monitor(
      id_, [&net, controller, id, sw](const FlowUpdate& update) {
        ++net.counters_.flow_update_events;
        FaultPlane* fp = net.fault_plane_for(id);
        const FaultPlane::Delivery d =
            fp ? fp->apply(sw, FaultDirection::FromSwitch, net.loop_.now())
               : FaultPlane::Delivery{};
        if (d.drop) return;
        const auto deliver = [controller, update] {
          controller->on_flow_update(update);
        };
        net.loop_.schedule_after(kControlLatency + d.extra_delay, deliver);
        if (d.duplicate) {
          net.loop_.schedule_after(
              kControlLatency + d.extra_delay + kDuplicateGap, deliver);
        }
      });
}

// --- host side ---

void Network::register_host_receiver(HostId host, HostReceiver receiver) {
  receivers_[host].push_back(std::move(receiver));
}

void Network::host_send(HostId host, PortRef access_point,
                        const Packet& packet) {
  const auto attached = topo_.host_at(access_point);
  util::ensure(attached.has_value() && *attached == host,
               "host is not attached at this access point");
  const sim::Time lat = topo_.host_latency(access_point);
  loop_.schedule_after(lat, [this, access_point, packet] {
    deliver_to_switch(access_point, packet, kMaxHops);
  });
}

// --- event-driven forwarding ---

void Network::deliver_to_switch(PortRef in, Packet packet,
                                std::size_t hops_left) {
  if (hops_left == 0) {
    ++counters_.loop_drops;
    return;
  }
  loop_.schedule_after(kSwitchProcDelay, [this, in, packet, hops_left] {
    const PipelineOutput out = switch_sim(in.sw).process(
        in.port, packet, loop_.now(), /*enforce_meters=*/true);
    if (out.table_miss) ++counters_.table_miss_drops;
    if (out.metered_drop) ++counters_.metered_drops;
    if (out.ttl_expired) ++counters_.ttl_drops;
    route_outputs(in.sw, out, hops_left - 1);
  });
}

void Network::route_outputs(SwitchId sw, const PipelineOutput& out,
                            std::size_t hops_left) {
  for (const auto& [port, pkt] : out.forwards) {
    const PortRef out_ref{sw, port};
    if (const auto peer = topo_.link_peer(out_ref)) {
      ++counters_.data_hops;
      const sim::Time lat = topo_.link_latency(out_ref);
      const PortRef dest = *peer;
      const Packet copy = pkt;
      loop_.schedule_after(lat, [this, dest, copy, hops_left] {
        deliver_to_switch(dest, copy, hops_left);
      });
    } else if (const auto host = topo_.host_at(out_ref)) {
      ++counters_.host_deliveries;
      const sim::Time lat = topo_.host_latency(out_ref);
      const HostId h = *host;
      const Packet copy = pkt;
      loop_.schedule_after(lat, [this, h, out_ref, copy] {
        const auto it = receivers_.find(h);
        if (it == receivers_.end()) return;
        for (const HostReceiver& receiver : it->second) {
          receiver(out_ref, copy);
        }
      });
    } else {
      ++counters_.dark_deliveries;
    }
  }
  for (const PacketIn& punt : out.punts) dispatch_punt(punt);
}

void Network::dispatch_punt(const PacketIn& punt) {
  for (auto& slot : slots_) {
    const auto it = slot->authenticated.find(punt.sw);
    if (it == slot->authenticated.end() || !it->second) continue;
    ++counters_.packet_ins;
    Controller* controller = slot->controller;
    loop_.schedule_after(kControlLatency, [controller, punt] {
      controller->on_packet_in(punt);
    });
  }
}

// --- functional ground truth ---

Trajectory Network::trace(PortRef ingress, const Packet& packet) {
  util::ensure(topo_.valid_port(ingress), "bad ingress port");
  Trajectory result;

  struct WorkItem {
    PortRef in;
    Packet packet;
    std::vector<TrajectoryHop> path;
  };
  std::deque<WorkItem> queue;
  queue.push_back(WorkItem{ingress, packet, {}});

  // Loop detection: a (port, header, ttl) state repeating means the packet
  // cycles (with dec-TTL, the TTL makes states differ and terminates walks).
  std::set<std::tuple<PortRef, std::string, std::uint8_t>> seen;

  while (!queue.empty()) {
    WorkItem item = std::move(queue.front());
    queue.pop_front();

    if (result.hop_count >= kMaxHops) {
      result.loop_detected = true;
      break;
    }

    const auto state = std::make_tuple(item.in, item.packet.hdr.to_string(),
                                       item.packet.ttl);
    if (!seen.insert(state).second) {
      result.loop_detected = true;
      continue;
    }

    ++result.hop_count;
    const PipelineOutput out = switch_sim(item.in.sw).process(
        item.in.port, item.packet, loop_.now(), /*enforce_meters=*/false);
    result.ttl_expired |= out.ttl_expired;
    for (const PacketIn& punt : out.punts) result.punts.push_back(punt);

    for (const auto& [port, pkt] : out.forwards) {
      const PortRef out_ref{item.in.sw, port};
      auto path = item.path;
      path.push_back(TrajectoryHop{item.in, out_ref});

      if (const auto peer = topo_.link_peer(out_ref)) {
        queue.push_back(WorkItem{*peer, pkt, std::move(path)});
      } else {
        result.deliveries.push_back(TrajectoryDelivery{
            out_ref, topo_.host_at(out_ref), pkt, std::move(path)});
      }
    }
  }
  return result;
}

Trajectory Network::trace_from_host(HostId host, const Packet& packet) {
  const auto ports = topo_.host_ports(host);
  util::ensure(!ports.empty(), "host has no access point");
  return trace(ports.front(), packet);
}

}  // namespace rvaas::sdn
