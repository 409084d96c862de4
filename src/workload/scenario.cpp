#include "workload/scenario.hpp"

#include <algorithm>

#include "util/ensure.hpp"

namespace rvaas::workload {

namespace {

crypto::SigningKey make_key(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5ea15eed);
  return crypto::SigningKey::generate(rng);
}

}  // namespace

ScenarioRuntime::ScenarioRuntime(ScenarioConfig config)
    : config_(std::move(config)),
      rng_(config_.seed),
      provider_key_(make_key(config_.seed)) {
  ias_ = std::make_unique<enclave::AttestationService>(rng_);
  net_ = std::make_unique<sdn::Network>(loop_, config_.generated.topo);

  // Provider configuration: tenants round-robin, addressing for all hosts.
  control::ProviderConfig pconfig;
  util::ensure(config_.tenant_count >= 1, "need at least one tenant");
  for (std::size_t t = 0; t < config_.tenant_count; ++t) {
    control::TenantSpec tenant;
    tenant.id = sdn::TenantId(static_cast<std::uint32_t>(t + 1));
    tenant.vlan = static_cast<std::uint16_t>(100 + t);
    pconfig.tenants.push_back(tenant);
  }
  for (std::size_t i = 0; i < config_.generated.hosts.size(); ++i) {
    const sdn::HostId host = config_.generated.hosts[i];
    pconfig.addressing.assign(host);
    pconfig.tenants[i % config_.tenant_count].members.push_back(host);
  }
  for (const auto& [tenant_index, meter] : config_.tenant_meters) {
    util::ensure(tenant_index < pconfig.tenants.size(), "bad tenant index");
    pconfig.tenant_meters[pconfig.tenants[tenant_index].id] = meter;
  }

  provider_ = std::make_unique<control::ProviderController>(
      sdn::ControllerId(1), std::move(pconfig), rng_.fork());
  rvaas_ = std::make_unique<core::RvaasController>(
      sdn::ControllerId(2), *net_, *ias_, config_.rvaas, rng_.fork());

  // Trusted bootstrap: both controller certificates are configured on the
  // switches a priori (paper §III).
  net_->authorize_controller_key(provider_key_.verify_key().id());
  net_->authorize_controller_key(rvaas_->channel_key().id());

  provider_->connect(*net_, provider_key_);
  if (config_.with_geo) {
    rvaas_->set_geo_provider(
        std::make_unique<core::DisclosedGeo>(net_->topology()));
  }
  rvaas_->set_addressing(&provider_->addressing());

  // Client agents + enrollment + attestation-based trust establishment.
  for (const sdn::HostId host : config_.generated.hosts) {
    if (std::find(config_.wire_hosts.begin(), config_.wire_hosts.end(),
                  host) != config_.wire_hosts.end()) {
      // Reserved for a wire session: no agent, but burn the fork it would
      // have taken so every later agent keeps its key stream.
      (void)rng_.fork();
      continue;
    }
    auto agent = std::make_unique<core::ClientAgent>(
        host, *net_, provider_->addressing().of(host), rng_.fork());
    rvaas_->register_client(host, agent->verify_key(), agent->box_public());
    const bool attested = agent->verify_attestation(
        rvaas_->quote(), ias_->root_key(),
        enclave::measure_code(config_.rvaas.enclave_name,
                              config_.rvaas.enclave_version),
        rvaas_->enclave().verify_key(), rvaas_->enclave().box_public());
    util::ensure(attested, "client failed to attest genuine RVaaS");
    clients_.emplace(host, std::move(agent));
  }

  rvaas_->bootstrap();
  provider_->install_routing();
  settle();  // flush bootstrap flow-mods
}

core::ClientAgent& ScenarioRuntime::client(sdn::HostId host) {
  const auto it = clients_.find(host);
  util::ensure(it != clients_.end(), "unknown client host");
  return *it->second;
}

core::ClientAgent::Outcome ScenarioRuntime::query_and_wait(
    sdn::HostId client_host, const core::Query& query, sim::Time timeout) {
  return query_timed(client_host, query, timeout).outcome;
}

ScenarioRuntime::TimedOutcome ScenarioRuntime::query_timed(
    sdn::HostId client_host, const core::Query& query, sim::Time timeout) {
  std::optional<core::ClientAgent::Outcome> outcome;
  const sim::Time start = loop_.now();
  sim::Time arrival = start;
  client(client_host)
      .send_query(query,
                  [this, &outcome, &arrival](
                      const core::ClientAgent::Outcome& o) {
                    outcome = o;
                    arrival = loop_.now();
                    loop_.stop();  // return to the caller promptly
                  },
                  timeout);
  // The timeout event guarantees the outcome lands within `timeout`; add
  // margin for the delivery latency of the reply already in flight.
  loop_.run_until(start + timeout + 10 * sim::kMillisecond);
  util::ensure(outcome.has_value(), "query neither answered nor timed out");
  return TimedOutcome{*outcome, arrival - start};
}

}  // namespace rvaas::workload
