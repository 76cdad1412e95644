#include "analognf/sim/queue_sim.hpp"

#include <cmath>
#include <stdexcept>

#include "analognf/aqm/analog_aqm.hpp"

namespace analognf::sim {

void QueueSimConfig::Validate() const {
  if (!(duration_s > 0.0)) {
    throw std::invalid_argument("QueueSimConfig: duration <= 0");
  }
  if (warmup_s < 0.0 || warmup_s >= duration_s) {
    throw std::invalid_argument(
        "QueueSimConfig: warmup must be in [0, duration)");
  }
  if (!(link_rate_bps > 0.0)) {
    throw std::invalid_argument("QueueSimConfig: link rate <= 0");
  }
  if (!(sample_interval_s > 0.0)) {
    throw std::invalid_argument("QueueSimConfig: sample interval <= 0");
  }
  for (std::size_t i = 1; i < phases.size(); ++i) {
    if (phases[i].start_s < phases[i - 1].start_s) {
      throw std::invalid_argument("QueueSimConfig: phases out of order");
    }
  }
}

double SimReport::DropRate() const {
  if (offered_packets == 0) return 0.0;
  const std::uint64_t drops =
      queue_stats.dropped_full + queue_stats.dropped_aqm;
  return static_cast<double>(drops) / static_cast<double>(offered_packets);
}

double SimReport::ThroughputBps() const {
  if (duration_s <= 0.0) return 0.0;
  return delivered_bytes * 8.0 / duration_s;
}

double SimReport::FlowFairnessIndex() const {
  if (delivered_by_flow.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& [flow, delivered] : delivered_by_flow) {
    const auto d = static_cast<double>(delivered);
    sum += d;
    sum_sq += d * d;
  }
  if (sum_sq <= 0.0) return 0.0;
  const auto n = static_cast<double>(delivered_by_flow.size());
  return sum * sum / (n * sum_sq);
}

double SimReport::DelayFractionWithin(double lo_s, double hi_s) const {
  std::size_t inside = 0;
  std::size_t total = 0;
  for (const auto& p : delay.points()) {
    if (p.time < warmup_s) continue;
    ++total;
    if (p.value >= lo_s && p.value <= hi_s) ++inside;
  }
  return total == 0 ? 0.0
                    : static_cast<double>(inside) /
                          static_cast<double>(total);
}

QueueSimulator::QueueSimulator(QueueSimConfig config,
                               net::MetaSource& source,
                               aqm::AqmPolicy& policy,
                               aqm::CognitiveAqmController* controller)
    : config_(config),
      source_(source),
      policy_(policy),
      controller_(controller),
      queue_(config.queue) {
  config_.Validate();
}

void QueueSimulator::BindTelemetry(telemetry::MetricsRegistry& registry) {
  telemetry_.offered = registry.GetCounter("sim.offered");
  telemetry_.delivered = registry.GetCounter("sim.delivered");
  // Sojourns span microseconds (an idle fast link) to whole seconds of
  // standing-queue delay: 1 µs doubling 30 times reaches ~17 minutes.
  telemetry::HistogramSpec sojourn_spec;
  sojourn_spec.first_bound = 1.0;
  sojourn_spec.growth = 2.0;
  sojourn_spec.buckets = 30;
  telemetry_.sojourn_us =
      registry.GetHistogram("sim.sojourn_us", sojourn_spec);
  telemetry_.queue_depth = registry.GetGauge("sim.queue_depth");
}

void QueueSimulator::ScheduleNextArrival() {
  net::PacketMeta packet = source_.Next();
  if (packet.arrival_time_s > config_.duration_s) return;
  pending_arrival_ = packet;
  events_.Schedule(packet.arrival_time_s, kArrival);
}

void QueueSimulator::SampleDepth() {
  const double depth = static_cast<double>(queue_.packets());
  report_.queue_depth.Append(events_.now(), depth);
  telemetry_.queue_depth.Set(depth);
  if (events_.now() + config_.sample_interval_s <= config_.duration_s) {
    events_.ScheduleIn(config_.sample_interval_s, kSample);
  }
}

void QueueSimulator::SamplePdp() {
  const double pdp = policy_.LastDropProbability();
  if (std::isfinite(pdp)) {
    report_.drop_prob.Append(events_.now(), pdp);
  }
}

void QueueSimulator::OnArrival() {
  const net::PacketMeta packet = pending_arrival_;
  const double now = events_.now();
  ++report_.offered_packets;
  telemetry_.offered.Inc();

  // Apply any pending offered-load phase changes.
  while (next_phase_ < config_.phases.size() &&
         config_.phases[next_phase_].start_s <= now) {
    source_.SetRate(config_.phases[next_phase_].rate_pps);
    ++next_phase_;
  }

  aqm::AqmContext ctx;
  ctx.now_s = now;
  ctx.sojourn_s = queue_.HeadSojourn(now);
  ctx.queue_bytes = queue_.bytes();
  ctx.queue_packets = queue_.packets();
  ctx.packet = packet;

  const aqm::AqmVerdict verdict = policy_.DecideOnEnqueue(ctx);
  SamplePdp();
  if (verdict == aqm::AqmVerdict::kDrop) {
    queue_.NoteAqmDrop(packet);
  } else {
    net::PacketMeta admitted = packet;
    if (verdict == aqm::AqmVerdict::kMark) {
      admitted.ecn_marked = true;
      ++report_.ecn_marked_packets;
    }
    if (queue_.Enqueue(admitted, now)) {
      StartServiceIfIdle();
    }
  }
  ScheduleNextArrival();
}

void QueueSimulator::StartServiceIfIdle() {
  if (server_busy_) return;
  const net::PacketMeta* head = queue_.Peek();
  if (head == nullptr) return;
  server_busy_ = true;
  const double service_s =
      static_cast<double>(head->size_bytes) * 8.0 / config_.link_rate_bps;
  events_.ScheduleIn(service_s, kDeparture);
}

void QueueSimulator::OnDeparture() {
  const double now = events_.now();
  server_busy_ = false;

  auto dequeued = queue_.Dequeue(now);
  if (!dequeued.has_value()) return;

  // CoDel-style head-drop loop: the policy may discard the head and the
  // server immediately takes the next packet in the same service slot.
  while (dequeued.has_value()) {
    aqm::AqmContext ctx;
    ctx.now_s = now;
    ctx.sojourn_s = dequeued->sojourn_s;
    ctx.queue_bytes = queue_.bytes();
    ctx.queue_packets = queue_.packets();
    ctx.packet = dequeued->meta;
    if (!policy_.ShouldDropOnDequeue(ctx)) break;
    queue_.NoteAqmDrop(dequeued->meta);
    dequeued = queue_.Dequeue(now);
  }
  if (!dequeued.has_value()) return;

  // Deliver.
  report_.delay.Append(now, dequeued->sojourn_s);
  ++report_.delivered_packets;
  telemetry_.delivered.Inc();
  telemetry_.sojourn_us.Observe(dequeued->sojourn_s * 1e6);
  if (dequeued->meta.ecn_marked) ++report_.delivered_marked_packets;
  report_.delivered_bytes += dequeued->meta.size_bytes;
  if (now >= config_.warmup_s) {
    report_.delay_stats.Add(dequeued->sojourn_s);
    report_.delay_p99.Add(dequeued->sojourn_s);
    ++report_.delivered_by_flow[dequeued->meta.flow_hash];
    if (dequeued->meta.priority >= 4) {
      report_.delay_stats_high_priority.Add(dequeued->sojourn_s);
    } else {
      report_.delay_stats_low_priority.Add(dequeued->sojourn_s);
    }
  }
  if (controller_ != nullptr) {
    controller_->ObserveDeparture(now, dequeued->sojourn_s);
  }
  StartServiceIfIdle();
}

SimReport QueueSimulator::Run() {
  report_ = SimReport{};

  // Pre-size the sampled traces: the sampler fires once per interval for
  // the whole run, and the PDP trace records one point per offered
  // packet-admission decision (bounded below by the sampler count).
  const std::size_t expected_samples =
      static_cast<std::size_t>(config_.duration_s /
                               config_.sample_interval_s) + 2;
  report_.queue_depth.Reserve(expected_samples);
  report_.drop_prob.Reserve(expected_samples);

  events_.Schedule(0.0, kSample);  // the queue-depth sampling clock
  ScheduleNextArrival();
  for (Event event; events_.PopUntil(config_.duration_s, event);) {
    switch (event.kind) {
      case kSample:
        SampleDepth();
        break;
      case kArrival:
        OnArrival();
        break;
      case kDeparture:
        OnDeparture();
        break;
    }
  }

  report_.queue_stats = queue_.stats();
  report_.duration_s = config_.duration_s;
  report_.warmup_s = config_.warmup_s;
  if (auto* analog = dynamic_cast<aqm::AnalogAqm*>(&policy_)) {
    report_.aqm_energy_j = analog->ConsumedEnergyJ();
  }
  return report_;
}

}  // namespace analognf::sim
