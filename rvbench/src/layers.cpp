#include "layers.hpp"

#include "crypto/seal.hpp"
#include "net/framing.hpp"

namespace rvbench {

using namespace rvaas;

namespace {

/// Median wall time of `op` in microseconds: at least 5 calls and ~20 ms.
template <typename Op>
double median_us(Op&& op) {
  Series s;
  const auto start = Clock::now();
  while (s.count() < 5 || (seconds_since(start) < 0.02 && s.count() < 2000)) {
    const auto t0 = Clock::now();
    op();
    s.add(us_between(t0, Clock::now()));
  }
  return s.median();
}

/// Keeps a result observable so the timed call is not optimised away.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

}  // namespace

void measure_codec_layers(const enclave::Enclave& enclave,
                          const CodecSamples& samples, std::uint64_t seed,
                          Report& layers) {
  util::Rng rng(seed ^ 0x1a7e5);
  const crypto::SigningKey client_key = crypto::SigningKey::generate(rng);
  const crypto::BoxOpener client_box = crypto::BoxOpener::generate(rng);
  control::HostAddress src;
  src.ip = 0x0a000001;
  src.eth = 0x020000000001;

  // Crypto primitives at the reply's signed and sealed payload sizes.
  const util::Bytes payload = samples.reply.signing_payload();
  const crypto::Signature sig = client_key.sign(payload);
  const crypto::BoxSealer sealer = client_box.sealer();
  const crypto::SealedBox box = sealer.seal(rng, payload);
  layers.metric("crypto.sign_us",
                median_us([&] { keep(client_key.sign(payload)); }), "us");
  layers.metric("crypto.verify_us", median_us([&] {
                  keep(client_key.verify_key().verify(payload, sig));
                }),
                "us");
  layers.metric("crypto.seal_us",
                median_us([&] { keep(sealer.seal(rng, payload)); }), "us");
  layers.metric("crypto.open_us",
                median_us([&] { keep(client_box.open(box)); }), "us");

  // In-band envelope codecs on the recorded messages.
  namespace inband = core::inband;
  const sdn::Packet request =
      inband::make_request_packet(src, samples.request, enclave.box_public(),
                                  rng);
  const sdn::Packet reply = inband::make_reply_packet(
      samples.reply, enclave, client_box.public_element(), rng);
  const sdn::Packet notify = inband::make_notify_packet(
      samples.notification, enclave, client_box.public_element(), rng);
  layers.metric("inband.make_request_us", median_us([&] {
                  keep(inband::make_request_packet(
                      src, samples.request, enclave.box_public(), rng));
                }),
                "us");
  layers.metric("inband.open_request_us", median_us([&] {
                  keep(inband::open_request(request, enclave));
                }),
                "us");
  layers.metric("inband.make_reply_us", median_us([&] {
                  keep(inband::make_reply_packet(
                      samples.reply, enclave, client_box.public_element(),
                      rng));
                }),
                "us");
  layers.metric("inband.open_reply_us", median_us([&] {
                  keep(inband::open_reply(reply, client_box,
                                          enclave.verify_key()));
                }),
                "us");
  layers.metric("inband.make_notify_us", median_us([&] {
                  keep(inband::make_notify_packet(
                      samples.notification, enclave,
                      client_box.public_element(), rng));
                }),
                "us");
  layers.metric("inband.open_notify_us", median_us([&] {
                  keep(inband::open_notify(notify, client_box,
                                           enclave.verify_key()));
                }),
                "us");

  // Wire framing: encode, incremental decode and the INBAND wrapper, per
  // frame, averaged over the three recorded message shapes.
  const sdn::Packet* packets[] = {&request, &reply, &notify};
  std::uint64_t frames = 0;
  const auto start = Clock::now();
  while (frames < 3000 || seconds_since(start) < 0.02) {
    for (const sdn::Packet* p : packets) {
      const util::Bytes frame = net::encode_frame(net::encode_inband(*p));
      net::FrameDecoder decoder;
      decoder.feed(frame);
      const auto body = decoder.take();
      keep(net::decode_inband(*body));
      ++frames;
    }
  }
  layers.metric("net.frame_codec_ns",
                us_between(start, Clock::now()) * 1000.0 /
                    static_cast<double>(frames),
                "ns");
}

const char* kind_suffix(core::QueryKind kind) {
  switch (kind) {
    case core::QueryKind::ReachableEndpoints: return "reachable";
    case core::QueryKind::Isolation: return "isolation";
    case core::QueryKind::Geo: return "geo";
    case core::QueryKind::TransferSummary: return "transfer";
    default: return "other";
  }
}

void EngineProbe::run(const core::SnapshotManager& snap, sdn::PortRef from,
                      const sdn::Match& constraint,
                      const control::HostAddressing& addressing) {
  const auto before = engine_.cache_stats();
  auto t0 = Clock::now();
  const hsa::NetworkModel model = engine_.model(snap);
  model_us_.add(us_between(t0, Clock::now()));
  const auto after = engine_.cache_stats();
  const auto compiled = (after.switch_recompiles - before.switch_recompiles) +
                        (after.switch_hits - before.switch_hits);
  // A clean hit recompiles nothing: everything was reused.
  l1_reuse_.add(compiled == 0
                    ? 1.0
                    : static_cast<double>(after.switch_hits -
                                          before.switch_hits) /
                          static_cast<double>(compiled));
  t0 = Clock::now();
  keep(engine_.model_uncached(snap));
  uncached_us_.add(us_between(t0, Clock::now()));

  core::QueryEngine::EvalContext ctx;
  ctx.from = from;
  ctx.geo = &geo_;
  ctx.addressing = &addressing;
  for (const core::QueryKind kind : kWireKinds) {
    core::Property property;
    property.kind = kind;
    property.constraint = constraint;
    t0 = Clock::now();
    const auto evaluation = engine_.evaluate(model, snap, property, ctx);
    evaluate_us_[kind].add(us_between(t0, Clock::now()));
    if (kind == core::QueryKind::ReachableEndpoints &&
        evaluation.primary_reach) {
      reach_steps_.add(static_cast<double>(evaluation.primary_reach->steps));
    }
  }
}

void EngineProbe::merge_into(EngineProbe& into) const {
  into.model_us_.append(model_us_);
  into.uncached_us_.append(uncached_us_);
  into.l1_reuse_.append(l1_reuse_);
  into.reach_steps_.append(reach_steps_);
  for (const auto& [kind, s] : evaluate_us_) into.evaluate_us_[kind].append(s);
}

void EngineProbe::report(Report& layers) const {
  layers.metric("engine.model_us", model_us_.median(), "us");
  layers.metric("engine.model_uncached_us", uncached_us_.median(), "us");
  layers.metric("engine.l1_reuse", l1_reuse_.mean(), "ratio");
  layers.metric("hsa.reach_steps_per_query", reach_steps_.mean(), "count");
  for (const core::QueryKind kind : kWireKinds) {
    const auto it = evaluate_us_.find(kind);
    layers.metric(std::string("engine.evaluate_us.") + kind_suffix(kind),
                  it == evaluate_us_.end() ? 0 : it->second.median(), "us");
  }
}

}  // namespace rvbench
