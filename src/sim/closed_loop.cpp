#include "analognf/sim/closed_loop.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf::sim {

void ClosedLoopConfig::Validate() const {
  if (sources == 0) {
    throw std::invalid_argument("ClosedLoopConfig: zero sources");
  }
  if (!std::isfinite(base_rtt_s) || !(base_rtt_s > 0.0)) {
    throw std::invalid_argument("ClosedLoopConfig: base_rtt not finite > 0");
  }
  if (segment_bytes == 0) {
    throw std::invalid_argument("ClosedLoopConfig: zero segment size");
  }
  if (!(initial_cwnd >= min_cwnd) || !(max_cwnd >= initial_cwnd) ||
      !(min_cwnd > 0.0) || !std::isfinite(max_cwnd)) {
    throw std::invalid_argument(
        "ClosedLoopConfig: require 0 < min_cwnd <= initial_cwnd <= max_cwnd");
  }
  // Positive form: a NaN fraction fails it.
  if (!(ecn_fraction >= 0.0 && ecn_fraction <= 1.0)) {
    throw std::invalid_argument("ClosedLoopConfig: ecn_fraction outside [0,1]");
  }
  if (!std::isfinite(duration_s) || !(duration_s > 0.0) ||
      !(warmup_s >= 0.0) || warmup_s >= duration_s) {
    throw std::invalid_argument("ClosedLoopConfig: bad duration/warmup");
  }
  if (!std::isfinite(link_rate_bps) || !(link_rate_bps > 0.0)) {
    throw std::invalid_argument("ClosedLoopConfig: link rate not finite > 0");
  }
}

double ClosedLoopReport::FairnessIndex() const {
  if (per_source_goodput_pps.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double g : per_source_goodput_pps) {
    sum += g;
    sum_sq += g * g;
  }
  if (sum_sq <= 0.0) return 0.0;
  const auto n = static_cast<double>(per_source_goodput_pps.size());
  return sum * sum / (n * sum_sq);
}

double ClosedLoopReport::LinkUtilization(double link_rate_bps,
                                         std::uint32_t segment_bytes) const {
  if (!(link_rate_bps > 0.0)) return 0.0;
  double delivered_pps = 0.0;
  for (double g : per_source_goodput_pps) delivered_pps += g;
  const double utilization = delivered_pps *
                             static_cast<double>(segment_bytes) * 8.0 /
                             link_rate_bps;
  return std::min(1.0, utilization);
}

ClosedLoopSimulator::ClosedLoopSimulator(ClosedLoopConfig config,
                                         aqm::AqmPolicy& policy)
    : config_([&] {
        config.Validate();
        return config;
      }()),
      policy_(policy),
      queue_(config_.queue) {
  sources_.resize(config_.sources);
  const auto ecn_count = static_cast<std::size_t>(
      config_.ecn_fraction * static_cast<double>(config_.sources) + 0.5);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    sources_[i].cwnd = config_.initial_cwnd;
    sources_[i].ecn = i < ecn_count;
  }
}

void ClosedLoopSimulator::ScheduleSend(std::size_t source) {
  Source& src = sources_[source];
  // Rate-pacing approximation of a window: cwnd segments per RTT.
  const double interval = config_.base_rtt_s / src.cwnd;
  src.next_send_s = std::max(src.next_send_s + interval, events_.now());
  if (src.next_send_s > config_.duration_s) return;
  events_.Schedule(src.next_send_s, kSend, source);
}

void ClosedLoopSimulator::SendFrom(std::size_t source) {
  const double now = events_.now();
  Source& src = sources_[source];
  ++report_.offered_packets;

  net::PacketMeta packet;
  packet.id = next_packet_id_++;
  packet.arrival_time_s = now;
  packet.size_bytes = config_.segment_bytes;
  packet.flow_hash = source;
  packet.ecn_capable = src.ecn;

  aqm::AqmContext ctx;
  ctx.now_s = now;
  ctx.sojourn_s = queue_.HeadSojourn(now);
  ctx.queue_bytes = queue_.bytes();
  ctx.queue_packets = queue_.packets();
  ctx.packet = packet;

  const aqm::AqmVerdict verdict = policy_.DecideOnEnqueue(ctx);
  if (verdict == aqm::AqmVerdict::kDrop) {
    queue_.NoteAqmDrop(packet);
    ++report_.dropped_packets;
    // Loss detected about one RTT later (dupack/timeout analogue).
    events_.ScheduleIn(config_.base_rtt_s, kLoss, source);
  } else {
    if (verdict == aqm::AqmVerdict::kMark) {
      packet.ecn_marked = true;
      ++report_.marked_packets;
    }
    if (queue_.Enqueue(packet, now)) {
      if (!server_busy_) {
        server_busy_ = true;
        const double service = static_cast<double>(config_.segment_bytes) *
                               8.0 / config_.link_rate_bps;
        events_.ScheduleIn(service, kDeparture);
      }
    } else {
      ++report_.dropped_packets;
      events_.ScheduleIn(config_.base_rtt_s, kLoss, source);
    }
  }
  ScheduleSend(source);
}

void ClosedLoopSimulator::OnDeparture() {
  const double now = events_.now();
  server_busy_ = false;

  auto dequeued = queue_.Dequeue(now);
  while (dequeued.has_value()) {
    aqm::AqmContext ctx;
    ctx.now_s = now;
    ctx.sojourn_s = dequeued->sojourn_s;
    ctx.queue_bytes = queue_.bytes();
    ctx.queue_packets = queue_.packets();
    ctx.packet = dequeued->meta;
    if (!policy_.ShouldDropOnDequeue(ctx)) break;
    queue_.NoteAqmDrop(dequeued->meta);
    ++report_.dropped_packets;
    events_.ScheduleIn(config_.base_rtt_s, kLoss, dequeued->meta.flow_hash);
    dequeued = queue_.Dequeue(now);
  }
  if (!dequeued.has_value()) return;

  report_.delay.Append(now, dequeued->sojourn_s);
  ++report_.delivered_packets;
  if (now >= config_.warmup_s) {
    report_.delay_stats.Add(dequeued->sojourn_s);
    ++sources_[static_cast<std::size_t>(dequeued->meta.flow_hash)]
          .delivered_post_warmup;
  }
  // Ack arrives half an RTT later; a CE mark rides back on it (arg bit 0).
  events_.ScheduleIn(config_.base_rtt_s / 2.0, kAck,
                     dequeued->meta.flow_hash << 1 |
                         (dequeued->meta.ecn_marked ? 1u : 0u));

  if (!queue_.empty()) {
    server_busy_ = true;
    const double service = static_cast<double>(config_.segment_bytes) *
                           8.0 / config_.link_rate_bps;
    events_.ScheduleIn(service, kDeparture);
  }
}

void ClosedLoopSimulator::SampleCwnd() {
  constexpr double kSampleIntervalS = 0.05;
  double total = 0.0;
  for (const Source& s : sources_) total += s.cwnd;
  report_.total_cwnd.Append(events_.now(), total);
  if (events_.now() + kSampleIntervalS <= config_.duration_s) {
    events_.ScheduleIn(kSampleIntervalS, kSample);
  }
}

void ClosedLoopSimulator::Decrease(std::size_t source, double now_s) {
  Source& src = sources_[source];
  if (now_s < src.decrease_blocked_until_s) return;
  src.cwnd = std::max(config_.min_cwnd, src.cwnd / 2.0);
  src.decrease_blocked_until_s = now_s + config_.base_rtt_s;
}

void ClosedLoopSimulator::OnAck(std::size_t source, bool congestion_signal,
                                double now_s) {
  Source& src = sources_[source];
  if (congestion_signal) {
    Decrease(source, now_s);
  } else {
    // Additive increase: one segment per window's worth of acks.
    src.cwnd = std::min(config_.max_cwnd, src.cwnd + 1.0 / src.cwnd);
  }
}

ClosedLoopReport ClosedLoopSimulator::Run() {
  report_ = ClosedLoopReport{};
  report_.duration_s = config_.duration_s;
  report_.warmup_s = config_.warmup_s;

  // Stagger source start times to avoid phase locking.
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    const double start =
        config_.base_rtt_s * static_cast<double>(i) /
        static_cast<double>(sources_.size());
    sources_[i].next_send_s = start;
    events_.Schedule(start, kSend, i);
  }
  events_.Schedule(0.0, kSample);  // the aggregate-cwnd sampling clock

  for (Event event; events_.PopUntil(config_.duration_s, event);) {
    const auto arg = static_cast<std::size_t>(event.arg);
    switch (event.kind) {
      case kSample:
        SampleCwnd();
        break;
      case kSend:
        SendFrom(arg);
        break;
      case kDeparture:
        OnDeparture();
        break;
      case kAck:
        OnAck(arg >> 1, (arg & 1u) != 0, event.time_s);
        break;
      case kLoss:
        OnAck(arg, /*congestion_signal=*/true, event.time_s);
        break;
    }
  }

  const double measured_s = config_.duration_s - config_.warmup_s;
  report_.per_source_goodput_pps.reserve(sources_.size());
  for (const Source& s : sources_) {
    report_.per_source_goodput_pps.push_back(
        static_cast<double>(s.delivered_post_warmup) / measured_s);
  }
  report_.residual_packets = queue_.packets();
  return report_;
}

}  // namespace analognf::sim
