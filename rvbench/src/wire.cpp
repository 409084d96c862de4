// The wire workloads: RVaaS as a TCP client sees it, through net::WireServer
// and net::WireClient over loopback.
//
//   wire-query  closed loop: two attested sessions, each sending its next
//               one-shot query only after the previous reply verified.
//   wire-churn  open loop: one session holds EveryChange subscriptions while
//               a seeded drop rule comes and goes on a fixed schedule; a
//               second session sends queries at a fixed offered rate.
//
// Load sizing: two client threads, the service thread and one I/O thread,
// so the run fits a 4-core host without oversubscribing it.

#include <algorithm>
#include <atomic>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "checks.hpp"
#include "layers.hpp"
#include "net/server.hpp"
#include "workload/topo_gen.hpp"
#include "workload/wire_world.hpp"
#include "workloads.hpp"

namespace rvbench {

using namespace rvaas;

namespace {

constexpr sdn::ControllerId kProviderId{1};
constexpr int kTimeoutMs = 5000;
constexpr std::uint64_t kChurnCookie = 0xbe4c;
/// Fat-tree arity and hosts per edge switch of the wire world.
constexpr std::uint32_t kFatTreeK = 4;
constexpr std::uint32_t kHostsPerEdge = 2;
/// wire-churn schedule: one churn step (drop rule added or removed) every
/// kChurnInterval; queries offered at a mean kChurnQueryRate per second.
constexpr auto kChurnInterval = std::chrono::milliseconds(100);
constexpr double kChurnQueryRate = 40;

// ---------------------------------------------------------------------------
// World

/// One attested wire session and the request ids it will use.
struct Session {
  std::unique_ptr<net::WireClient> client;
  sdn::HostId host{};
  sdn::PortRef ap{};
  /// Mirrors the client's request-id counter ((host << 32) | n from n = 1;
  /// a query takes one id, a subscribe two), so spans are keyed by the id
  /// the controller sees.
  std::uint64_t next_id = 0;
};

/// Forwarding WireTransport installed between the controller and the server
/// for the traced phase: stamps when the controller hands a reply, a push or
/// an auth request to the transport.
class Tap : public core::RvaasController::WireTransport {
 public:
  explicit Tap(net::WireServer& inner) : inner_(&inner) {}

  bool deliver_reply(sdn::HostId client,
                     const core::QueryReply& reply) override {
    stamp(replies_, reply.request_id, false);
    return inner_->deliver_reply(client, reply);
  }
  bool deliver_notification(sdn::HostId client,
                            const core::Notification& n) override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      pushes_[{n.subscription_id, n.sequence}] = Clock::now();
    }
    return inner_->deliver_notification(client, n);
  }
  bool deliver_auth_request(sdn::PortRef target,
                            const core::inband::AuthRequest& req) override {
    stamp(auths_, req.request_id, true);
    return inner_->deliver_auth_request(target, req);
  }

  std::optional<Clock::time_point> reply_at(std::uint64_t id) const {
    return find(replies_, id);
  }
  std::optional<Clock::time_point> first_auth_at(std::uint64_t id) const {
    return find(auths_, id);
  }
  std::optional<Clock::time_point> push_at(std::uint64_t sub,
                                           std::uint64_t seq) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = pushes_.find({sub, seq});
    if (it == pushes_.end()) return std::nullopt;
    return it->second;
  }

 private:
  using Stamps = std::unordered_map<std::uint64_t, Clock::time_point>;

  void stamp(Stamps& stamps, std::uint64_t id, bool first_only) {
    const auto now = Clock::now();
    std::lock_guard<std::mutex> lock(mu_);
    if (first_only) {
      stamps.emplace(id, now);
    } else {
      stamps[id] = now;
    }
  }
  std::optional<Clock::time_point> find(const Stamps& stamps,
                                        std::uint64_t id) const {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = stamps.find(id);
    if (it == stamps.end()) return std::nullopt;
    return it->second;
  }

  net::WireServer* inner_;
  mutable std::mutex mu_;
  Stamps replies_;
  Stamps auths_;
  std::map<std::pair<std::uint64_t, std::uint64_t>, Clock::time_point>
      pushes_;
};

struct WireWorld {
  std::unique_ptr<workload::ScenarioRuntime> runtime;
  std::unique_ptr<net::WireService> service;
  std::unique_ptr<net::WireServer> server;
  std::vector<Session> sessions;

  core::RvaasController& rvaas() { return runtime->rvaas(); }

  ~WireWorld() {
    for (Session& s : sessions) {
      if (s.client) s.client->close();
    }
    if (server) server->stop();
    if (service) service->stop();
  }
};

workload::ScenarioConfig wire_config(std::uint64_t seed,
                                     std::vector<sdn::HostId> wire_hosts) {
  workload::ScenarioConfig config;
  config.generated = workload::fat_tree(kFatTreeK, kHostsPerEdge);
  config.tenant_count = 1;
  config.seed = seed;
  config.wire_hosts = std::move(wire_hosts);
  return config;
}

/// Seeded choice of `n` distinct wire hosts of the fixed fat-tree world.
std::vector<sdn::HostId> pick_wire_hosts(util::Rng& rng, std::size_t n) {
  std::vector<sdn::HostId> hosts =
      workload::fat_tree(kFatTreeK, kHostsPerEdge).hosts;
  std::vector<sdn::HostId> picked;
  while (picked.size() < n) {
    const auto i = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(hosts.size()) - 1));
    picked.push_back(hosts[i]);
    hosts.erase(hosts.begin() + static_cast<std::ptrdiff_t>(i));
  }
  return picked;
}

sdn::PortRef access_point(workload::ScenarioRuntime& rt, sdn::HostId host) {
  return rt.network().topology().host_ports(host).front();
}

/// Builds, settles and serves the world and connects one attested session
/// per wire host. `before_serving` runs untimed on the loop-owning thread
/// before the service starts (the cold references are computed there).
std::unique_ptr<WireWorld> open_world(
    const workload::ScenarioConfig& config, std::uint64_t seed,
    SetupTimes& times,
    const std::function<void(workload::ScenarioRuntime&)>& before_serving) {
  auto world = std::make_unique<WireWorld>();
  auto t0 = Clock::now();
  world->runtime = std::make_unique<workload::ScenarioRuntime>(config);
  world->runtime->settle(50 * sim::kMillisecond);
  times.world_s = seconds_since(t0);
  if (before_serving) before_serving(*world->runtime);

  t0 = Clock::now();
  world->service = std::make_unique<net::WireService>(world->runtime->loop());
  net::WireServerConfig server_config;
  server_config.io_threads = 1;
  world->server = std::make_unique<net::WireServer>(
      server_config, world->rvaas(), *world->service,
      world->runtime->ias().root_key(),
      workload::wire_slots(*world->runtime, config.wire_hosts),
      seed ^ 0x3157);
  world->service->start();
  world->server->start();
  for (std::size_t i = 0; i < config.wire_hosts.size(); ++i) {
    Session s;
    net::WireClientConfig client_config;
    client_config.port = world->server->port();
    client_config.requested_host = config.wire_hosts[i].value;
    client_config.seed = seed * 131 + i;
    s.client = std::make_unique<net::WireClient>(client_config);
    if (s.client->connect() != net::WelcomeStatus::Ok) {
      throw std::runtime_error("wire session failed to connect");
    }
    s.host = s.client->host();
    s.ap = s.client->access_point();
    s.next_id = (static_cast<std::uint64_t>(s.host.value) << 32) | 1;
    world->sessions.push_back(std::move(s));
  }
  times.connect_s = seconds_since(t0);
  return world;
}

// ---------------------------------------------------------------------------
// Inputs and their cold references

sdn::Match dst_match(sdn::HostId host) {
  return sdn::Match().exact(sdn::Field::IpDst,
                            control::HostAddressing::derive(host).ip);
}

/// Every query shape a session draws from: each wire kind over traffic to
/// each other host, and Geo and TransferSummary over all of its traffic.
/// Endpoint kinds stay per destination: an all-traffic one fans its auth
/// round out to every host (and an all-traffic Isolation is a cold sweep of
/// every ingress after churn, 100+ ms on the service thread), a rare heavy
/// mode that would decide every tail by chance.
std::vector<core::Query> query_shapes(const std::vector<sdn::HostId>& hosts,
                                      sdn::HostId self) {
  std::vector<core::Query> out;
  for (const core::QueryKind kind : kWireKinds) {
    core::Query q;
    q.kind = kind;
    if (kind == core::QueryKind::Geo ||
        kind == core::QueryKind::TransferSummary) {
      out.push_back(q);
    }
    for (const sdn::HostId h : hosts) {
      if (h == self) continue;
      q.constraint = dst_match(h);
      out.push_back(q);
    }
  }
  return out;
}

/// The first shape of each kind (warm-up: one query per kind).
std::vector<std::size_t> first_shape_per_kind(
    const std::vector<core::Query>& shapes) {
  std::vector<std::size_t> out;
  for (const core::QueryKind kind : kWireKinds) {
    for (std::size_t i = 0; i < shapes.size(); ++i) {
      if (shapes[i].kind == kind) {
        out.push_back(i);
        break;
      }
    }
  }
  return out;
}

/// A fresh engine over the current snapshot, compiled from scratch: the
/// cold reference every timed answer is compared with. Construct and use it
/// on the thread that owns the loop.
class ColdReference {
 public:
  explicit ColdReference(workload::ScenarioRuntime& rt)
      : rt_(&rt),
        engine_(rt.network().topology(), rt.rvaas().engine().config()),
        geo_(rt.network().topology()),
        model_(engine_.model_uncached(rt.rvaas().snapshot())) {}

  Content content(sdn::PortRef from, const core::Property& property) const {
    core::QueryEngine::EvalContext ctx;
    ctx.from = from;
    ctx.geo = &geo_;
    ctx.addressing = &rt_->addressing();
    return content_of(
        engine_.evaluate(model_, rt_->rvaas().snapshot(), property, ctx)
            .reply);
  }

  std::vector<Content> contents(sdn::PortRef from,
                                const std::vector<core::Query>& shapes) const {
    std::vector<Content> out;
    for (const core::Query& q : shapes) {
      out.push_back(content(from, core::Property::from_query(q)));
    }
    return out;
  }

 private:
  workload::ScenarioRuntime* rt_;
  core::QueryEngine engine_;
  core::DisclosedGeo geo_;
  hsa::NetworkModel model_;
};

// ---------------------------------------------------------------------------
// Counters read from the program's own stats, for per-layer deltas

struct Counters {
  net::WireServer::Stats server;
  core::RvaasController::Stats controller;
  core::PropertyMonitor::Stats monitor;
  core::ReachCache::Stats l2;
};

Counters read_counters(WireWorld& w) {
  return w.service->call([&w] {
    core::RvaasController& c = w.rvaas();
    return Counters{w.server->stats(), c.stats(), c.monitor().stats(),
                    c.engine().reach_stats()};
  });
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

std::uint64_t bad_frames(const net::WireServer::Stats& s) {
  return s.bad_frames + s.bad_hellos + s.bad_envelopes;
}

/// Fails the run if the server flagged any bad frame, hello or envelope.
void check_server(const Counters& before, const Counters& after,
                  Errors& errors) {
  const std::uint64_t bad = bad_frames(after.server) - bad_frames(before.server);
  if (bad != 0) {
    errors.fail("server flagged " + std::to_string(bad) +
                " bad frames/hellos/envelopes");
  }
}

void report_counters(const Counters& b, const Counters& a,
                     std::uint64_t churn_steps, Report& layers) {
  const auto d = [](std::uint64_t after, std::uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double answers = d(a.server.replies_out, b.server.replies_out) +
                         d(a.server.notifications_out,
                           b.server.notifications_out);
  layers.metric("net.bytes_per_query",
                ratio(d(a.server.bytes_in, b.server.bytes_in) +
                          d(a.server.bytes_out, b.server.bytes_out),
                      answers),
                "bytes");
  layers.metric("net.frames_per_flush",
                ratio(d(a.server.frames_out, b.server.frames_out),
                      d(a.server.flushes, b.server.flushes)),
                "ratio");
  layers.metric("net.bad_frames", d(bad_frames(a.server), bad_frames(b.server)),
                "count");
  const double queries =
      d(a.controller.queries_received, b.controller.queries_received);
  layers.metric("controller.crypto_ops_per_query",
                ratio(d(a.controller.crypto_ops, b.controller.crypto_ops),
                      queries),
                "ops");
  layers.metric("controller.auth_requests_per_query",
                ratio(d(a.controller.auth_requests_sent,
                        b.controller.auth_requests_sent),
                      queries),
                "count");
  layers.metric("engine.l2_hit_rate",
                ratio(d(a.l2.hits, b.l2.hits), d(a.l2.lookups, b.l2.lookups)),
                "ratio");
  layers.metric("engine.l2_evictions",
                d(a.l2.entries_invalidated, b.l2.entries_invalidated),
                "count");
  const double sweeps = d(a.monitor.sweeps, b.monitor.sweeps);
  const double wakeups = d(a.monitor.wakeups, b.monitor.wakeups);
  const double skipped = d(a.monitor.skipped, b.monitor.skipped);
  const double steps = static_cast<double>(churn_steps);
  layers.metric("monitor.wakeups_per_sweep", ratio(wakeups, sweeps), "count");
  layers.metric("monitor.skip_ratio", ratio(skipped, wakeups + skipped),
                "ratio");
  layers.metric("monitor.sweeps_per_churn", ratio(sweeps, steps), "count");
  layers.metric("monitor.pushes_per_churn",
                ratio(d(a.controller.notifications_sent,
                        b.controller.notifications_sent),
                      steps),
                "count");
}

void report_snapshot(WireWorld& w, Report& layers) {
  const auto [entries, bytes] = w.service->call([&w] {
    const core::SnapshotManager& snap = w.rvaas().snapshot();
    return std::make_pair(snap.entry_count(), snap.approx_memory_bytes());
  });
  layers.metric("snapshot.entries", static_cast<double>(entries), "count");
  layers.metric("snapshot.bytes", static_cast<double>(bytes), "bytes");
}

// ---------------------------------------------------------------------------
// Traced-phase instruments shared by both workloads

/// What a traced phase records beside the end-to-end figures: spans, the
/// tap's stamps, the per-kind split of every verified query, and the
/// engine probe.
struct Instruments {
  Instruments(Tracer& t, const Tap& p, EngineProbe& e)
      : tracer(t), tap(p), engine(e) {}

  Tracer& tracer;
  const Tap& tap;
  EngineProbe& engine;
  std::map<core::QueryKind, Series> exit_us;    ///< send -> deliver_reply
  std::map<core::QueryKind, Series> return_us;  ///< deliver_reply -> verified
  Series auth_wait_us;  ///< first auth request -> deliver_reply
  std::mutex mu;

  /// Records the spans of one verified query and its split. `due` is the
  /// open-loop due time (equal to `sent` in a closed loop).
  void record(std::uint64_t id, core::QueryKind kind, Clock::time_point due,
              Clock::time_point sent, Clock::time_point received) {
    tracer.record(id, "wire.query", nullptr, due, received);
    if (due < sent) tracer.record(id, "client.gen_late", "wire.query", due, sent);
    const auto replied = tap.reply_at(id);
    if (!replied) return;
    tracer.record(id, "controller.exit", "wire.query", sent, *replied);
    tracer.record(id, "net.return", "wire.query", *replied, received);
    const auto auth = tap.first_auth_at(id);
    if (auth) {
      tracer.record(id, "controller.auth_wait", "controller.exit", *auth,
                    *replied);
    }
    std::lock_guard<std::mutex> lock(mu);
    exit_us[kind].add(us_between(sent, *replied));
    return_us[kind].add(us_between(*replied, received));
    if (auth) auth_wait_us.add(us_between(*auth, *replied));
  }

  void report(Report& layers) {
    for (const core::QueryKind kind : kWireKinds) {
      layers.metric(std::string("controller.exit_us.") + kind_suffix(kind),
                    exit_us[kind].median(), "us");
      layers.metric(std::string("controller.return_us.") + kind_suffix(kind),
                    return_us[kind].median(), "us");
    }
    layers.metric("controller.auth_wait_us", auth_wait_us.median(), "us");
  }
};

/// Runs on the calling thread until `stop`: a no-op WireService::call every
/// 2 ms (the service-queue wait a posted closure sees) and, when `engine`
/// is set, an engine probe every 100 ms.
void probe_loop(WireWorld& w, const std::atomic<bool>& stop,
                Series& service_wait_us, EngineProbe* engine,
                sdn::PortRef from, const sdn::Match& constraint) {
  auto next_engine = Clock::now();
  while (!stop.load()) {
    const auto t0 = Clock::now();
    w.service->call([] { return 0; });
    service_wait_us.add(us_between(t0, Clock::now()));
    if (engine != nullptr && Clock::now() >= next_engine) {
      w.service->call([&] {
        engine->run(w.rvaas().snapshot(), from, constraint,
                    w.runtime->addressing());
        return 0;
      });
      next_engine = Clock::now() + std::chrono::milliseconds(100);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void report_service_wait(const Series& wait_us, Report& layers) {
  layers.metric("net.service_wait_us.p50", wait_us.median(), "us");
  const auto tail = resolvable_tail(wait_us.values);
  layers.metric("net.service_wait_us.p99", tail ? tail->value : 0, "us");
}

/// Sets the controller's wire transport (the tap for the traced phase, the
/// server again afterwards) on the service thread.
void set_transport(WireWorld& w,
                   core::RvaasController::WireTransport* transport) {
  w.service->call([&w, transport] {
    w.rvaas().set_wire_transport(transport);
    return 0;
  });
}

CodecSamples codec_samples(const Session& s, const core::Query& query,
                           const core::QueryReply& reply) {
  CodecSamples samples;
  samples.request.request_id = s.next_id;
  samples.request.client = s.host;
  samples.request.query = query;
  samples.reply = reply;
  samples.notification.subscription_id = s.next_id;
  samples.notification.sequence = 1;
  samples.notification.reply = reply;
  return samples;
}

// ---------------------------------------------------------------------------
// wire-query

struct QueryPhaseResult {
  Series all_ms;     ///< every verified query
  Series direct_ms;  ///< Geo + TransferSummary: no auth round
  std::uint64_t verified = 0;
  double elapsed_s = 0;
};

/// One closed-loop phase: each session thread sends its next query as soon
/// as the previous reply verified.
QueryPhaseResult closed_loop(WireWorld& w,
                             const std::vector<std::vector<core::Query>>& shapes,
                             const std::vector<std::vector<Content>>& expected,
                             std::vector<util::Rng>& rngs, double seconds,
                             Errors& errors, Instruments* traced) {
  QueryPhaseResult result;
  std::mutex mu;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t si = 0; si < w.sessions.size(); ++si) {
    threads.emplace_back([&, si] {
      Session& s = w.sessions[si];
      util::Rng& rng = rngs[si];
      Series all, direct;
      std::uint64_t verified = 0;
      while (Clock::now() < end) {
        const auto idx = static_cast<std::size_t>(rng.uniform_int(
            0, static_cast<std::int64_t>(shapes[si].size()) - 1));
        const core::Query& q = shapes[si][idx];
        const std::uint64_t id = s.next_id++;
        const auto t0 = Clock::now();
        const auto outcome = s.client->query(q, kTimeoutMs);
        const auto t1 = Clock::now();
        errors.attempt();
        const std::string why = check_reply(outcome, {&expected[si][idx]});
        if (!why.empty()) {
          errors.fail("wire-query: " + why);
          continue;
        }
        ++verified;
        const double ms = ms_between(t0, t1);
        all.add(ms);
        if (q.kind == core::QueryKind::Geo ||
            q.kind == core::QueryKind::TransferSummary) {
          direct.add(ms);
        }
        if (traced != nullptr) traced->record(id, q.kind, t0, t0, t1);
      }
      std::lock_guard<std::mutex> lock(mu);
      result.all_ms.append(all);
      result.direct_ms.append(direct);
      result.verified += verified;
    });
  }
  for (auto& t : threads) t.join();
  result.elapsed_s = seconds_since(start);
  return result;
}

void report_query_phase(const QueryPhaseResult& r, Report& e2e) {
  const double qps = ratio(static_cast<double>(r.verified), r.elapsed_s);
  e2e.metric("ops_per_s", qps, "1/s");
  e2e.line(named("query_qps", qps, "queries/s", r.verified));
  e2e.timing("query", r.all_ms, "op_p50_ms", "op_tail_ms");
  e2e.timing("direct_query", r.direct_ms, "aux_p50_ms", "aux_tail_ms");
}

}  // namespace

void run_wire_query(const RunConfig& config, RunOutput& out) {
  util::Rng rng(config.seed);
  const std::vector<sdn::HostId> wire_hosts = pick_wire_hosts(rng, 2);
  const workload::ScenarioConfig scenario = wire_config(config.seed, wire_hosts);
  const std::vector<sdn::HostId> all_hosts = scenario.generated.hosts;
  std::vector<std::vector<core::Query>> shapes;
  for (const sdn::HostId h : wire_hosts) {
    shapes.push_back(query_shapes(all_hosts, h));
  }
  std::vector<std::vector<Content>> expected(wire_hosts.size());

  std::vector<SetupTimes> setups;
  std::unique_ptr<WireWorld> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    const bool last = i + 1 == kSetups;
    SetupTimes times;
    world = open_world(
        scenario, config.seed, times,
        [&](workload::ScenarioRuntime& rt) {
          if (!last) return;
          const ColdReference cold(rt);
          for (std::size_t si = 0; si < wire_hosts.size(); ++si) {
            expected[si] =
                cold.contents(access_point(rt, wire_hosts[si]), shapes[si]);
          }
        });
    const auto t0 = Clock::now();
    for (std::size_t si = 0; si < world->sessions.size(); ++si) {
      Session& s = world->sessions[si];
      for (const std::size_t idx : first_shape_per_kind(shapes[si])) {
        ++s.next_id;
        const auto outcome = s.client->query(shapes[si][idx], kTimeoutMs);
        if (!last) continue;
        out.errors.attempt();
        const std::string why = check_reply(outcome, {&expected[si][idx]});
        if (!why.empty()) out.errors.fail("wire-query warm-up: " + why);
      }
    }
    times.warm_s = seconds_since(t0);
    setups.push_back(times);
  }
  report_setup(setups, out);

  std::vector<util::Rng> rngs;
  for (std::size_t si = 0; si < wire_hosts.size(); ++si) {
    rngs.emplace_back(config.seed * 7919 + si);
  }

  // Untraced phase: the end-to-end figures.
  Counters before = read_counters(*world);
  const QueryPhaseResult plain =
      closed_loop(*world, shapes, expected, rngs, untraced_seconds(config),
                  out.errors, nullptr);
  Counters after = read_counters(*world);
  check_server(before, after, out.errors);
  report_query_phase(plain, out.e2e);

  if (config.trace) {
    out.tracer.enable();
    Tap tap(*world->server);
    set_transport(*world, &tap);
    EngineProbe engine(world->runtime->network().topology(),
                       world->rvaas().engine().config());
    Instruments instruments(out.tracer, tap, engine);
    Series service_wait_us;
    std::atomic<bool> stop{false};
    before = read_counters(*world);
    std::thread prober([&] {
      probe_loop(*world, stop, service_wait_us, &engine,
                 world->sessions.front().ap, dst_match(wire_hosts[1]));
    });
    const QueryPhaseResult traced = closed_loop(
        *world, shapes, expected, rngs, config.seconds - untraced_seconds(config),
        out.errors, &instruments);
    stop = true;
    prober.join();
    after = read_counters(*world);
    set_transport(*world, world->server.get());
    check_server(before, after, out.errors);
    report_query_phase(traced, out.e2e_traced);

    report_counters(before, after, 0, out.layers);
    report_snapshot(*world, out.layers);
    report_service_wait(service_wait_us, out.layers);
    instruments.report(out.layers);
    engine.report(out.layers);

    // Codec layers at this workload's sizes: a recorded ReachableEndpoints
    // reply.
    Session& s = world->sessions.front();
    const core::Query& q = shapes.front().front();
    ++s.next_id;
    const auto outcome = s.client->query(q, kTimeoutMs);
    if (!outcome.reply) throw std::runtime_error("codec sample query failed");
    measure_codec_layers(world->rvaas().enclave(),
                         codec_samples(s, q, *outcome.reply), config.seed,
                         out.layers);
  }
}

// ---------------------------------------------------------------------------
// wire-churn

namespace {

/// Cold-reference answers of every churn state: state 0 is the baseline,
/// state k a drop rule at sites[k - 1].
struct ChurnPlan {
  std::vector<sdn::SwitchId> sites;
  std::vector<std::vector<Content>> subs;     ///< [state][subscription]
  std::vector<std::vector<Content>> queries;  ///< [state][query shape]
};

sdn::FlowMod drop_rule() {
  sdn::FlowMod mod;
  // Out-ranks the provider's routing rules, stays below the RVaaS in-band
  // intercept (0xffff).
  mod.priority = 1000;
  mod.cookie = kChurnCookie;
  mod.actions = {sdn::drop()};
  return mod;
}

sdn::FlowMod delete_rule(sdn::FlowEntryId id) {
  sdn::FlowMod mod;
  mod.command = sdn::FlowModCommand::Delete;
  mod.target = id;
  return mod;
}

/// The subscriber's properties, three per other in-process host X, all over
/// traffic to X: ReachableEndpoints with no endpoint policy, the same with
/// a whitelist naming another host (violated while the route is up, clear
/// while it is cut), and TransferSummary. A cut at X's edge changes all
/// three, so every churn step owes the same number of pushes.
std::vector<core::Property> churn_properties(
    const std::vector<sdn::HostId>& hosts, sdn::HostId subscriber,
    sdn::HostId querier, util::Rng& rng) {
  std::vector<core::Property> out;
  for (const sdn::HostId dst : hosts) {
    if (dst == subscriber || dst == querier) continue;
    core::Property p;
    p.kind = core::QueryKind::ReachableEndpoints;
    p.constraint = dst_match(dst);
    p.expect.require_full_auth = false;  // only the endpoint set matters
    out.push_back(p);
    sdn::HostId other = dst;
    while (other == dst) other = rng.pick(hosts);
    p.expect.allowed_endpoints = {other};
    out.push_back(p);
    p.expect.allowed_endpoints.clear();
    p.kind = core::QueryKind::TransferSummary;
    out.push_back(p);
  }
  return out;
}

/// Churn sites: the edge switches of in-process hosts (not the two wire
/// sessions'). An edge switch is a leaf of the fat tree, so a drop rule
/// there cuts exactly the routes to its own hosts: every step owes the same
/// number of pushes whatever the seed picks.
std::vector<sdn::SwitchId> churn_sites(workload::ScenarioRuntime& rt,
                                       sdn::HostId subscriber,
                                       sdn::HostId querier) {
  const sdn::Topology& topo = rt.network().topology();
  const sdn::SwitchId skip[] = {topo.host_ports(subscriber).front().sw,
                                topo.host_ports(querier).front().sw};
  std::vector<sdn::SwitchId> out;
  for (const sdn::HostId h : rt.hosts()) {
    const sdn::SwitchId sw = topo.host_ports(h).front().sw;
    if (std::find(std::begin(skip), std::end(skip), sw) != std::end(skip) ||
        std::find(out.begin(), out.end(), sw) != out.end()) {
      continue;
    }
    out.push_back(sw);
  }
  return out;
}

/// Computes the plan on the loop-owning thread before the service starts:
/// the cold answers of every subscription and query shape with a drop rule
/// at each churn site in turn.
ChurnPlan make_plan(workload::ScenarioRuntime& rt,
                    const std::vector<core::Property>& props,
                    sdn::HostId subscriber,
                    const std::vector<core::Query>& shapes,
                    sdn::HostId querier) {
  const sdn::PortRef sub_ap = access_point(rt, subscriber);
  const sdn::PortRef query_ap = access_point(rt, querier);
  ChurnPlan plan;
  const auto state_of = [&](std::vector<Content>& subs,
                            std::vector<Content>& queries) {
    const ColdReference cold(rt);
    for (const core::Property& p : props) subs.push_back(cold.content(sub_ap, p));
    queries = cold.contents(query_ap, shapes);
  };
  plan.subs.emplace_back();
  plan.queries.emplace_back();
  state_of(plan.subs[0], plan.queries[0]);

  for (const sdn::SwitchId sw : churn_sites(rt, subscriber, querier)) {
    const auto added =
        rt.network().switch_sim(sw).apply_flow_mod(kProviderId, drop_rule());
    if (!added.id) throw std::runtime_error("churn rule was not installed");
    rt.settle(5 * sim::kMillisecond);
    std::vector<Content> subs, queries;
    state_of(subs, queries);
    rt.network().switch_sim(sw).apply_flow_mod(kProviderId,
                                               delete_rule(*added.id));
    rt.settle(5 * sim::kMillisecond);
    if (subs == plan.subs[0]) {
      throw std::runtime_error("a churn site changes no subscription");
    }
    plan.sites.push_back(sw);
    plan.subs.push_back(std::move(subs));
    plan.queries.push_back(std::move(queries));
  }
  if (plan.sites.empty()) throw std::runtime_error("no churn site found");
  return plan;
}

/// Shared state between the churn thread, the service thread and the query
/// thread: the sequence of churn states applied so far.
struct Timeline {
  std::mutex mu;
  std::vector<std::size_t> states{0};
  std::size_t size() {
    std::lock_guard<std::mutex> lock(mu);
    return states.size();
  }
  std::size_t at(std::size_t i) {
    std::lock_guard<std::mutex> lock(mu);
    return states[i];
  }
  void push(std::size_t state) {
    std::lock_guard<std::mutex> lock(mu);
    states.push_back(state);
  }
};

struct ChurnPhaseResult {
  Series alert_ms;     ///< churn apply -> verified push
  Series query_ms;     ///< due -> verified reply
  Series gen_late_ms;  ///< send (or churn post) minus due
  Series push_exit_us;    ///< churn apply -> deliver_notification (traced)
  Series push_return_us;  ///< deliver_notification -> verified (traced)
  std::uint64_t pushes = 0;
  std::uint64_t queries = 0;
  std::uint64_t steps = 0;
  double elapsed_s = 0;
};

/// The churn thread's persistent state across phases.
struct ChurnState {
  std::map<std::uint64_t, std::size_t> index_of;  ///< sub id -> property
  std::vector<std::uint64_t> last_seq;
  std::size_t current = 0;  ///< churn state now applied
  std::optional<sdn::FlowEntryId> live_rule;
  std::uint64_t step = 0;
  util::Rng rng{1};
};

/// Waits until `until` while answering auth requests; any push arriving
/// meanwhile is unexpected.
void idle_until(Session& s, Clock::time_point until, Errors& errors) {
  while (true) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        until - Clock::now());
    if (left.count() < 1) break;
    if (const auto ev = s.client->wait_notification(
            static_cast<int>(left.count()))) {
      errors.attempt();
      errors.fail("wire-churn: " + check_push(*ev, nullptr));
    }
  }
  std::this_thread::sleep_until(until);
}

ChurnPhaseResult churn_phase(WireWorld& w, const ChurnPlan& plan,
                             const std::vector<core::Property>& props,
                             const std::vector<core::Query>& shapes,
                             ChurnState& churn, util::Rng& query_rng,
                             Timeline& timeline, double seconds,
                             Errors& errors, Instruments* traced) {
  ChurnPhaseResult result;
  std::mutex mu;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  const sdn::Topology& topo = w.runtime->network().topology();
  const auto host_at = [&topo](sdn::PortRef ap) { return topo.host_at(ap); };

  std::thread subscriber([&] {
    Session& s = w.sessions[0];
    Series alert, late, exit_us, return_us;
    std::uint64_t pushes = 0, steps = 0;
    std::atomic<Clock::rep> applied_at{0};
    for (std::uint64_t j = 0;; ++j) {
      const auto due = start + j * kChurnInterval;
      if (due >= end) break;
      idle_until(s, due, errors);
      late.add(ms_between(due, Clock::now()));

      const std::size_t from = churn.current;
      const std::size_t to =
          from == 0 ? static_cast<std::size_t>(churn.rng.uniform_int(
                          1, static_cast<std::int64_t>(plan.sites.size())))
                    : 0;
      const sdn::SwitchId site = plan.sites[(from == 0 ? to : from) - 1];
      std::optional<sdn::FlowEntryId> rule = churn.live_rule;
      std::promise<std::optional<sdn::FlowEntryId>> installed;
      auto installed_id = installed.get_future();
      w.service->post([&, site, to, rule] {
        applied_at = Clock::now().time_since_epoch().count();
        auto& sw = w.runtime->network().switch_sim(site);
        if (to != 0) {
          installed.set_value(sw.apply_flow_mod(kProviderId, drop_rule()).id);
        } else {
          sw.apply_flow_mod(kProviderId, delete_rule(*rule));
          installed.set_value(std::nullopt);
        }
        timeline.push(to);
      });
      churn.live_rule = installed_id.get();
      const auto applied = Clock::time_point(Clock::duration(applied_at.load()));
      if (to != 0 && !churn.live_rule) {
        errors.fail("wire-churn: drop rule was not installed");
        break;
      }
      churn.current = to;
      const std::uint64_t step_id = (1ull << 63) | (churn.step++ << 16);
      ++steps;

      // The pushes this step owes: every subscription whose answer differs
      // between the two states, each exactly once.
      std::map<std::size_t, PushExpectation> owed;
      for (std::size_t i = 0; i < props.size(); ++i) {
        if (plan.subs[from][i] == plan.subs[to][i]) continue;
        owed[i] = PushExpectation{
            churn.last_seq[i] + 1,
            expected_kind(plan.subs[to][i], props[i].expect, host_at),
            plan.subs[to][i]};
      }
      errors.attempt(owed.size());
      const auto deadline = Clock::now() + std::chrono::seconds(2);
      Clock::time_point last_push = applied;
      while (!owed.empty()) {
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - Clock::now());
        const auto ev =
            left.count() > 0
                ? s.client->wait_notification(static_cast<int>(left.count()))
                : std::nullopt;
        if (!ev) {
          for (std::size_t k = 0; k < owed.size(); ++k) {
            errors.fail("wire-churn: push missing after 2 s");
          }
          break;
        }
        const auto received = Clock::now();
        const auto idx = churn.index_of.find(ev->subscription_id);
        const auto want = idx == churn.index_of.end()
                              ? owed.end()
                              : owed.find(idx->second);
        const std::string why =
            check_push(*ev, want == owed.end() ? nullptr : &want->second);
        if (!why.empty()) {
          if (want == owed.end()) errors.attempt();
          errors.fail("wire-churn: " + why);
          if (want != owed.end()) owed.erase(want);
          continue;
        }
        const std::size_t sub_index = want->first;
        churn.last_seq[sub_index] = ev->sequence;
        owed.erase(want);
        ++pushes;
        alert.add(ms_between(applied, received));
        last_push = received;
        if (traced != nullptr) {
          const std::uint64_t push_id = step_id | sub_index;
          Tracer& tracer = traced->tracer;
          tracer.record(push_id, "push.alert", nullptr, applied, received);
          if (const auto at =
                  traced->tap.push_at(ev->subscription_id, ev->sequence)) {
            tracer.record(push_id, "controller.push_exit", "push.alert",
                          applied, *at);
            tracer.record(push_id, "net.push_return", "push.alert", *at,
                          received);
            exit_us.add(us_between(applied, *at));
            return_us.add(us_between(*at, received));
          }
        }
      }
      if (traced != nullptr) {
        traced->tracer.record(step_id, "churn.step", nullptr, applied,
                              last_push);
        w.service->call([&] {
          traced->engine.run(w.rvaas().snapshot(), s.ap, props.front().constraint,
                      w.runtime->addressing());
          return 0;
        });
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    result.alert_ms.append(alert);
    result.gen_late_ms.append(late);
    result.push_exit_us.append(exit_us);
    result.push_return_us.append(return_us);
    result.pushes += pushes;
    result.steps += steps;
  });

  std::thread querier([&] {
    Session& s = w.sessions[1];
    Series lat, late;
    std::uint64_t verified = 0;
    // Poisson arrivals, as from independent users. A fixed period would
    // phase-lock the queries to the churn schedule (every fourth query due
    // at the instant of a churn step), so whether those collide with the
    // push burst would be decided by scheduling jitter, run by run.
    auto due = start;
    while (true) {
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(
              query_rng.exponential(1.0 / kChurnQueryRate)));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      const auto idx = static_cast<std::size_t>(query_rng.uniform_int(
          0, static_cast<std::int64_t>(shapes.size()) - 1));
      const std::uint64_t id = s.next_id++;
      const std::size_t first = timeline.size();
      const auto sent = Clock::now();
      late.add(ms_between(due, sent));
      const auto outcome = s.client->query(shapes[idx], kTimeoutMs);
      const auto received = Clock::now();
      const std::size_t last = timeline.size();
      // The reply may reflect any state live between send and receive,
      // including the one a just-posted churn step is replacing.
      std::vector<const Content*> allowed;
      for (std::size_t g = first >= 2 ? first - 2 : 0; g < last; ++g) {
        allowed.push_back(&plan.queries[timeline.at(g)][idx]);
      }
      errors.attempt();
      const std::string why = check_reply(outcome, allowed);
      if (!why.empty()) {
        errors.fail("wire-churn query: " + why);
        continue;
      }
      ++verified;
      lat.add(ms_between(due, received));
      if (traced != nullptr) {
        traced->record(id, shapes[idx].kind, due, sent, received);
      }
    }
    std::lock_guard<std::mutex> lock(mu);
    result.query_ms.append(lat);
    result.gen_late_ms.append(late);
    result.queries += verified;
  });

  subscriber.join();
  querier.join();
  result.elapsed_s = seconds_since(start);
  return result;
}

void report_churn_phase(const ChurnPhaseResult& r, Report& e2e) {
  const double ops =
      ratio(static_cast<double>(r.pushes + r.queries), r.elapsed_s);
  e2e.metric("ops_per_s", ops, "1/s");
  e2e.line(named("verified_per_s", ops, "pushes+queries/s",
                 r.pushes + r.queries));
  e2e.line(named("churn_steps", static_cast<double>(r.steps), "steps",
                 r.steps));
  e2e.timing("alert", r.alert_ms, "op_p50_ms", "op_tail_ms");
  e2e.timing("query", r.query_ms, "aux_p50_ms", "aux_tail_ms");
}

/// Subscribes every property on session 0 and checks each baseline push
/// (sequence 1, the verdict and content of state 0 when `plan` is known).
void subscribe_all(Session& s, const std::vector<core::Property>& props,
                   const ChurnPlan* plan, const sdn::Topology& topo,
                   ChurnState& churn, Errors* errors) {
  churn.index_of.clear();
  for (std::size_t i = 0; i < props.size(); ++i) {
    const std::uint64_t id =
        s.client->subscribe(props[i], core::NotifyPolicy::EveryChange);
    s.next_id += 2;
    churn.index_of[id] = i;
  }
  churn.last_seq.assign(props.size(), 0);
  const auto host_at = [&topo](sdn::PortRef ap) { return topo.host_at(ap); };
  for (std::size_t n = 0; n < props.size(); ++n) {
    const auto ev = s.client->wait_notification(kTimeoutMs);
    if (errors != nullptr) errors->attempt();
    if (!ev) {
      if (errors != nullptr) errors->fail("wire-churn: baseline push missing");
      continue;
    }
    const auto idx = churn.index_of.find(ev->subscription_id);
    if (idx == churn.index_of.end()) {
      if (errors != nullptr) errors->fail("wire-churn: " + check_push(*ev, nullptr));
      continue;
    }
    churn.last_seq[idx->second] = ev->sequence;
    if (plan == nullptr || errors == nullptr) continue;
    const PushExpectation want{
        1,
        expected_kind(plan->subs[0][idx->second], props[idx->second].expect,
                      host_at),
        plan->subs[0][idx->second]};
    const std::string why = check_push(*ev, &want);
    if (!why.empty()) errors->fail("wire-churn baseline: " + why);
  }
}

}  // namespace

void run_wire_churn(const RunConfig& config, RunOutput& out) {
  util::Rng rng(config.seed);
  const std::vector<sdn::HostId> wire_hosts = pick_wire_hosts(rng, 2);
  const workload::ScenarioConfig scenario = wire_config(config.seed, wire_hosts);
  const std::vector<sdn::HostId> all_hosts = scenario.generated.hosts;
  const std::vector<core::Property> props =
      churn_properties(all_hosts, wire_hosts[0], wire_hosts[1], rng);
  const std::vector<core::Query> shapes =
      query_shapes(all_hosts, wire_hosts[1]);

  ChurnPlan plan;
  ChurnState churn;
  churn.rng = rng.fork();
  std::vector<SetupTimes> setups;
  std::unique_ptr<WireWorld> world;
  for (int i = 0; i < kSetups; ++i) {
    world.reset();
    const bool last = i + 1 == kSetups;
    SetupTimes times;
    world = open_world(scenario, config.seed, times,
                       [&](workload::ScenarioRuntime& rt) {
                         if (!last) return;
                         plan = make_plan(rt, props, wire_hosts[0], shapes,
                                          wire_hosts[1]);
                       });
    const auto t0 = Clock::now();
    subscribe_all(world->sessions[0], props, last ? &plan : nullptr,
                  world->runtime->network().topology(), churn,
                  last ? &out.errors : nullptr);
    Session& q = world->sessions[1];
    for (const std::size_t idx : first_shape_per_kind(shapes)) {
      ++q.next_id;
      const auto outcome = q.client->query(shapes[idx], kTimeoutMs);
      if (!last) continue;
      out.errors.attempt();
      const std::string why = check_reply(outcome, {&plan.queries[0][idx]});
      if (!why.empty()) out.errors.fail("wire-churn warm-up: " + why);
    }
    times.warm_s = seconds_since(t0);
    setups.push_back(times);
  }
  report_setup(setups, out);

  util::Rng query_rng(config.seed * 7919 + 1);
  Timeline timeline;
  Counters before = read_counters(*world);
  const ChurnPhaseResult plain =
      churn_phase(*world, plan, props, shapes, churn, query_rng, timeline,
                  untraced_seconds(config), out.errors, nullptr);
  Counters after = read_counters(*world);
  check_server(before, after, out.errors);
  report_churn_phase(plain, out.e2e);
  out.e2e.line(named("client_gen_late_p50_ms", plain.gen_late_ms.median(),
                     "ms", plain.gen_late_ms.count()));

  if (config.trace) {
    out.tracer.enable();
    Tap tap(*world->server);
    set_transport(*world, &tap);
    EngineProbe engine(world->runtime->network().topology(),
                       world->rvaas().engine().config());
    Instruments instruments(out.tracer, tap, engine);
    Series service_wait_us;
    std::atomic<bool> stop{false};
    before = read_counters(*world);
    std::thread prober([&] {
      probe_loop(*world, stop, service_wait_us, nullptr, {}, {});
    });
    const ChurnPhaseResult traced = churn_phase(
        *world, plan, props, shapes, churn, query_rng, timeline,
        config.seconds - untraced_seconds(config), out.errors, &instruments);
    stop = true;
    prober.join();
    after = read_counters(*world);
    set_transport(*world, world->server.get());
    check_server(before, after, out.errors);
    report_churn_phase(traced, out.e2e_traced);

    report_counters(before, after, traced.steps, out.layers);
    report_snapshot(*world, out.layers);
    report_service_wait(service_wait_us, out.layers);
    instruments.report(out.layers);
    engine.report(out.layers);
    out.layers.metric("controller.push_exit_us", traced.push_exit_us.median(),
                      "us");
    out.layers.metric("controller.push_return_us",
                      traced.push_return_us.median(), "us");
    const auto late = resolvable_tail(traced.gen_late_ms.values);
    out.layers.metric("client.gen_late_ms", late ? late->value : 0, "ms");

    Session& q = world->sessions[1];
    ++q.next_id;
    const auto outcome = q.client->query(shapes.front(), kTimeoutMs);
    if (!outcome.reply) throw std::runtime_error("codec sample query failed");
    measure_codec_layers(world->rvaas().enclave(),
                         codec_samples(q, shapes.front(), *outcome.reply),
                         config.seed, out.layers);
  }

  // No push may trail the last step.
  Session& s = world->sessions[0];
  while (const auto ev = s.client->wait_notification(200)) {
    out.errors.attempt();
    out.errors.fail("wire-churn: " + check_push(*ev, nullptr));
  }
}

}  // namespace rvbench
