#include "analognf/arch/switch.hpp"

#include <stdexcept>
#include <utility>

#include "analognf/arch/stages.hpp"

namespace analognf::arch {

void SwitchConfig::Validate() const {
  if (port_count == 0) {
    throw std::invalid_argument("SwitchConfig: zero ports");
  }
  if (!(port_rate_bps > 0.0)) {
    throw std::invalid_argument("SwitchConfig: port rate <= 0");
  }
  digital_technology.Validate();
  if (service_classes == 0) {
    throw std::invalid_argument("SwitchConfig: zero service classes");
  }
  // A non-empty weight vector must be coherent under either scheduler:
  // silently ignoring a malformed one under strict priority hides the
  // bug until someone flips the scheduler.
  if (!wrr_weights.empty() && wrr_weights.size() != service_classes) {
    throw std::invalid_argument(
        "SwitchConfig: wrr_weights size must equal service_classes");
  }
  for (std::uint32_t w : wrr_weights) {
    if (w == 0) {
      throw std::invalid_argument("SwitchConfig: zero WRR weight");
    }
  }
  if (scheduler == SchedulerPolicy::kWeightedRoundRobin &&
      wrr_weights.empty()) {
    throw std::invalid_argument(
        "SwitchConfig: wrr_weights size must equal service_classes");
  }
  if (enable_aqm) aqm.Validate();
  if (enable_load_balancer) {
    std::vector<bool> seen(port_count, false);
    for (std::uint32_t p : lb_ports) {
      if (p >= port_count) {
        throw std::invalid_argument("SwitchConfig: lb_port out of range");
      }
      if (seen[p]) {
        throw std::invalid_argument("SwitchConfig: duplicate lb_port");
      }
      seen[p] = true;
    }
  }
  if (enable_classifier) {
    if (classifier_classes.empty()) {
      throw std::invalid_argument(
          "SwitchConfig: classifier enabled without classes");
    }
    if (!(classifier_min_confidence >= 0.0) ||
        !(classifier_min_confidence <= 1.0)) {
      throw std::invalid_argument(
          "SwitchConfig: classifier_min_confidence outside [0, 1]");
    }
  }
}

SharedTables::SharedTables(tcam::TcamTechnology technology,
                           std::size_t ports)
    : firewall(kFiveTupleBits, technology),
      routes(technology),
      port_count(ports) {}

std::size_t SharedTables::AddRoute(std::uint32_t dst_ip, int prefix_len,
                                   std::size_t port) {
  if (port >= port_count) {
    throw std::invalid_argument("SharedTables::AddRoute: port out of range");
  }
  return routes.AddRoute(dst_ip, prefix_len, static_cast<std::uint32_t>(port));
}

void SharedTables::WithdrawRoute(std::size_t route_index) {
  routes.WithdrawRoute(route_index);
}

std::size_t SharedTables::AddFirewallRule(const FirewallPattern& pattern,
                                          bool permit, std::int32_t priority) {
  tcam::TcamTable::Entry entry;
  entry.pattern = BuildFirewallWord(pattern);
  entry.action = permit ? kFirewallActionPermit : kFirewallActionDeny;
  entry.priority = priority;
  return firewall.Insert(std::move(entry));
}

void SharedTables::EraseFirewallRule(std::size_t rule_index) {
  firewall.Erase(rule_index);
}

void SharedTables::Commit() {
  firewall.Commit();
  routes.Commit();
}

namespace {

SwitchConfig Validated(SwitchConfig config) {
  config.Validate();
  return config;
}

}  // namespace

CognitiveSwitch::CognitiveSwitch(SwitchConfig config)
    : config_(Validated(std::move(config))),
      private_tables_(std::make_unique<SharedTables>(
          config_.digital_technology, config_.port_count)),
      tables_(private_tables_.get()),
      telemetry_(config_.telemetry) {
  BuildGraph();
}

CognitiveSwitch::CognitiveSwitch(SwitchConfig config, const SharedTables* shared)
    : config_(Validated(std::move(config))),
      tables_(shared),
      telemetry_(config_.telemetry) {
  if (tables_ == nullptr) {
    throw std::invalid_argument("CognitiveSwitch: null SharedTables");
  }
  BuildGraph();
}

void CognitiveSwitch::BuildGraph() {
  // Build the Fig. 5 chain: parser, digital MATs, optional cognitive
  // analog MATs, and the traffic manager last (it owns the ordered
  // commit, so custom stages inserted via AddStage land in front of it).
  graph_.Add(std::make_unique<ParseStage>(&movement_));
  graph_.Add(std::make_unique<FirewallStage>(&tables_->firewall));
  graph_.Add(std::make_unique<RouteStage>(&tables_->routes));

  if (config_.enable_load_balancer) {
    auto lb = std::make_unique<LoadBalancerStage>(
        config_.lb_ports, config_.port_count);
    lb_ = lb.get();
    graph_.Add(std::move(lb));
  }

  if (config_.enable_classifier) {
    auto classify = std::make_unique<TrafficClassStage>(
        config_.classifier_classes, config_.classifier_min_confidence);
    classify_ = classify.get();
    graph_.Add(std::move(classify));
  }

  auto tm = std::make_unique<TrafficManagerStage>(&config_, &movement_,
                                                  &stats_, &ledger_);
  tm_ = tm.get();
  graph_.Add(std::move(tm));

  BindTelemetry();
}

void CognitiveSwitch::BindTelemetry() {
  if (!telemetry_.enabled()) return;
  telemetry::MetricsRegistry& registry = telemetry_.metrics();
  graph_.BindTelemetry(registry);
  // Only a switch's own tables are bound. Nothing binds a group's
  // shared tables, so group ports export no tcam.firewall.* or
  // tcam.route.* counters.
  if (private_tables_ != nullptr) {
    private_tables_->firewall.BindTelemetry(registry, "tcam.firewall");
    private_tables_->routes.BindTelemetry(registry, "tcam.route");
  }
  if (lb_ != nullptr) lb_->BindTelemetry(registry);
  if (classify_ != nullptr) classify_->BindTelemetry(registry);

  verdict_counters_.injected = registry.GetCounter("switch.injected");
  verdict_counters_.forwarded = registry.GetCounter("switch.forwarded");
  verdict_counters_.parse_errors = registry.GetCounter("switch.parse_errors");
  verdict_counters_.firewall_denies =
      registry.GetCounter("switch.firewall_denies");
  verdict_counters_.no_route = registry.GetCounter("switch.no_route");
  verdict_counters_.aqm_drops = registry.GetCounter("switch.aqm_drops");
  verdict_counters_.queue_full = registry.GetCounter("switch.queue_full");
  batches_counter_ = registry.GetCounter("switch.batches");
  queue_depth_gauge_ = registry.GetGauge("switch.queue_depth");
  telemetry::HistogramSpec batch_spec;
  batch_spec.first_bound = 1.0;
  batch_spec.growth = 2.0;
  batch_spec.buckets = 16;  // up to 64 Ki packets per batch
  batch_size_hist_ = registry.GetHistogram("switch.batch_size", batch_spec);
}

void CognitiveSwitch::RecordBatchTrace(double now_s) {
  telemetry::BatchTraceRecord rec;
  rec.now_s = now_s;
  rec.batch_size = static_cast<std::uint32_t>(batch_.size());
  for (const Verdict v : batch_.verdicts) {
    switch (v) {
      case Verdict::kForwarded:
        ++rec.forwarded;
        break;
      case Verdict::kParseError:
        ++rec.parse_errors;
        break;
      case Verdict::kFirewallDeny:
        ++rec.firewall_denies;
        break;
      case Verdict::kNoRoute:
        ++rec.no_route;
        break;
      case Verdict::kAqmDrop:
        ++rec.aqm_drops;
        break;
      case Verdict::kQueueFull:
        ++rec.queue_full;
        break;
    }
  }
  rec.queue_depth = tm_->QueuedPackets();

  const std::vector<double>& stage_ns = graph_.last_stage_ns();
  rec.stage_count = static_cast<std::uint32_t>(stage_ns.size());
  for (std::size_t si = 0; si < stage_ns.size(); ++si) {
    rec.total_ns += stage_ns[si];
    // Stages beyond the fixed array fold into the last slot.
    const std::size_t slot =
        si < telemetry::BatchTraceRecord::kMaxStages
            ? si
            : telemetry::BatchTraceRecord::kMaxStages - 1;
    rec.stage_ns[slot] += stage_ns[si];
  }

  const net::PacketBatch::DegreeSummary& deg = batch_.pcam_degrees;
  rec.degree_count = deg.count;
  rec.degree_min = deg.min;
  rec.degree_max = deg.max;
  rec.degree_sum = deg.sum;

  verdict_counters_.injected.Inc(batch_.size());
  verdict_counters_.forwarded.Inc(rec.forwarded);
  verdict_counters_.parse_errors.Inc(rec.parse_errors);
  verdict_counters_.firewall_denies.Inc(rec.firewall_denies);
  verdict_counters_.no_route.Inc(rec.no_route);
  verdict_counters_.aqm_drops.Inc(rec.aqm_drops);
  verdict_counters_.queue_full.Inc(rec.queue_full);
  batches_counter_.Inc();
  queue_depth_gauge_.Set(static_cast<double>(rec.queue_depth));
  batch_size_hist_.Observe(static_cast<double>(batch_.size()));

  telemetry_.recorder().Record(rec);
}

SharedTables& CognitiveSwitch::MutableTables() {
  if (private_tables_ == nullptr) {
    throw std::logic_error(
        "CognitiveSwitch: group port — mutate the tables through their "
        "SharedTables owner");
  }
  return *private_tables_;
}

std::size_t CognitiveSwitch::AddRoute(std::uint32_t dst_ip, int prefix_len,
                                      std::size_t port) {
  return MutableTables().AddRoute(dst_ip, prefix_len, port);
}

void CognitiveSwitch::WithdrawRoute(std::size_t route_index) {
  MutableTables().WithdrawRoute(route_index);
}

std::size_t CognitiveSwitch::AddFirewallRule(const FirewallPattern& pattern,
                                             bool permit,
                                             std::int32_t priority) {
  return MutableTables().AddFirewallRule(pattern, permit, priority);
}

void CognitiveSwitch::EraseFirewallRule(std::size_t rule_index) {
  MutableTables().EraseFirewallRule(rule_index);
}

void CognitiveSwitch::Commit() {
  if (private_tables_ != nullptr) private_tables_->Commit();
}

MatchActionStage& CognitiveSwitch::AddStage(
    std::unique_ptr<MatchActionStage> stage) {
  return graph_.Insert(graph_.size() - 1, std::move(stage));
}

void CognitiveSwitch::SetWrrWeights(const std::vector<std::uint32_t>& weights) {
  tm_->SetWrrWeights(weights);
}

Verdict CognitiveSwitch::Inject(const net::Packet& packet, double now_s) {
  return RunBatch({&packet, 1}, now_s).front();
}

std::vector<Verdict> CognitiveSwitch::InjectBatch(
    std::span<const net::Packet> packets, double now_s) {
  const std::span<const Verdict> verdicts = RunBatch(packets, now_s);
  return {verdicts.begin(), verdicts.end()};
}

std::span<const Verdict> CognitiveSwitch::RunBatch(
    std::span<const net::Packet> packets, double now_s) {
  Commit();  // publish staged control-plane mutations at the batch boundary
  batch_.Reset(packets.data(), packets.size(), now_s);
  graph_.Run(batch_);
  if (telemetry_.enabled()) RecordBatchTrace(now_s);
  return batch_.verdicts;
}

std::vector<Delivery> CognitiveSwitch::Drain(double until_s) {
  std::vector<Delivery> out;
  DrainInto(until_s, out);
  return out;
}

std::size_t CognitiveSwitch::DrainInto(double until_s,
                                       std::vector<Delivery>& out) {
  return tm_->DrainInto(until_s, out);
}

const net::PacketQueue& CognitiveSwitch::egress_queue(
    std::size_t port, std::size_t service_class) const {
  return tm_->egress_queue(port, service_class);
}

aqm::AnalogAqm* CognitiveSwitch::port_aqm(std::size_t port,
                                          std::size_t service_class) {
  return tm_->port_aqm(port, service_class);
}

}  // namespace analognf::arch
