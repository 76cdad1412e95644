#include "analognf/sim/queue_sim.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace analognf::sim {
namespace {

// Queue-depth sampling period for the depth trace.
constexpr double kSampleIntervalS = 0.02;

}  // namespace

void QueueSimConfig::Validate() const {
  link().Validate();
  for (std::size_t i = 0; i < phases.size(); ++i) {
    const RatePhase& phase = phases[i];
    // Checked here rather than by SetRate mid-run.
    if (!std::isfinite(phase.start_s) || !std::isfinite(phase.rate_pps) ||
        !(phase.rate_pps > 0.0)) {
      throw std::invalid_argument(
          "QueueSimConfig: phase start not finite or rate not finite > 0");
    }
    if (i > 0 && phase.start_s < phases[i - 1].start_s) {
      throw std::invalid_argument("QueueSimConfig: phases out of order");
    }
  }
}

double SimReport::ThroughputBps() const {
  if (link.duration_s <= 0.0) return 0.0;
  return delivered_bytes * 8.0 / link.duration_s;
}

QueueSimulator::QueueSimulator(QueueSimConfig config,
                               net::MetaSource& source,
                               aqm::AqmPolicy& policy,
                               aqm::CognitiveAqmController* controller)
    : config_(std::move(config)),
      source_(source),
      policy_(policy),
      controller_(controller),
      link_(config_.link(), policy, events_, kDeparture) {
  config_.Validate();
}

void QueueSimulator::ScheduleNextArrival() {
  net::PacketMeta packet = source_.Next();
  if (packet.arrival_time_s > config_.duration_s) return;
  pending_arrival_ = packet;
  events_.Schedule(packet.arrival_time_s, kArrival);
}

void QueueSimulator::SampleDepth() {
  report_.queue_depth.Append(
      events_.now(), static_cast<double>(link_.queue().packets()));
  if (events_.now() + kSampleIntervalS <= config_.duration_s) {
    events_.ScheduleIn(kSampleIntervalS, kSample);
  }
}

void QueueSimulator::OnArrival() {
  // Apply any pending offered-load phase changes.
  while (next_phase_ < config_.phases.size() &&
         config_.phases[next_phase_].start_s <= events_.now()) {
    source_.SetRate(config_.phases[next_phase_].rate_pps);
    ++next_phase_;
  }

  link_.Offer(pending_arrival_);
  const double pdp = policy_.LastDropProbability();
  if (std::isfinite(pdp)) report_.drop_prob.Append(events_.now(), pdp);
  ScheduleNextArrival();
}

void QueueSimulator::OnDeparture() {
  const double now = events_.now();
  auto on_deliver = [&](const net::DequeuedPacket& delivered) {
    if (delivered.meta.ecn_marked) ++report_.delivered_marked_packets;
    report_.delivered_bytes += delivered.meta.size_bytes;
    if (now >= config_.warmup_s) {
      if (delivered.meta.priority >= 4) {
        report_.delay_stats_high_priority.Add(delivered.sojourn_s);
      } else {
        report_.delay_stats_low_priority.Add(delivered.sojourn_s);
      }
    }
    if (controller_ != nullptr) {
      controller_->ObserveDeparture(now, delivered.sojourn_s);
    }
  };
  link_.Depart([](const net::PacketMeta&) {}, on_deliver);
}

SimReport QueueSimulator::Run() {
  // Pre-size the sampled traces: the sampler fires once per interval for
  // the whole run, and the PDP trace records one point per offered
  // packet-admission decision (bounded below by the sampler count).
  const std::size_t expected_samples =
      static_cast<std::size_t>(config_.duration_s / kSampleIntervalS) + 2;
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

  report_.queue_stats = link_.queue().stats();
  report_.link = link_.TakeReport();
  return std::move(report_);
}

}  // namespace analognf::sim
