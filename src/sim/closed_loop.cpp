#include "analognf/sim/closed_loop.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace analognf::sim {
namespace {

// Congestion-window floor and cap of every source [segments].
constexpr double kMinCwnd = 1.0;
constexpr double kMaxCwnd = 256.0;

}  // namespace

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
  // Positive form: a NaN fraction fails it.
  if (!(ecn_fraction >= 0.0 && ecn_fraction <= 1.0)) {
    throw std::invalid_argument("ClosedLoopConfig: ecn_fraction outside [0,1]");
  }
  link().Validate();
}

double ClosedLoopReport::FairnessIndex() const {
  return link.FairnessIndex(link.duration_s - link.warmup_s);
}

double ClosedLoopReport::LinkUtilization(double link_rate_bps,
                                         std::uint32_t segment_bytes) const {
  if (!(link_rate_bps > 0.0)) return 0.0;
  const double measured_s = link.duration_s - link.warmup_s;
  double delivered_pps = 0.0;
  for (const auto& [source, delivered] : link.delivered_by_flow) {
    delivered_pps += static_cast<double>(delivered) / measured_s;
  }
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
      link_(config_.link(), policy, events_, kDeparture) {
  sources_.resize(config_.sources);
  const auto ecn_count = static_cast<std::size_t>(
      config_.ecn_fraction * static_cast<double>(config_.sources) + 0.5);
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    sources_[i].ecn = i < ecn_count;
    link_.AddFlow(i);
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
  net::PacketMeta packet;
  packet.id = next_packet_id_++;
  packet.arrival_time_s = events_.now();
  packet.size_bytes = config_.segment_bytes;
  packet.flow_hash = source;
  packet.ecn_capable = sources_[source].ecn;
  if (!link_.Offer(packet)) {
    // Loss detected about one RTT later (dupack/timeout analogue).
    events_.ScheduleIn(config_.base_rtt_s, kLoss, source);
  }
  ScheduleSend(source);
}

void ClosedLoopSimulator::OnDeparture() {
  link_.Depart(
      [&](const net::PacketMeta& dropped) {
        events_.ScheduleIn(config_.base_rtt_s, kLoss, dropped.flow_hash);
      },
      [&](const net::DequeuedPacket& delivered) {
        // The ack arrives half an RTT later; a CE mark rides back on it
        // (arg bit 0).
        events_.ScheduleIn(config_.base_rtt_s / 2.0, kAck,
                           delivered.meta.flow_hash << 1 |
                               (delivered.meta.ecn_marked ? 1u : 0u));
      });
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
  src.cwnd = std::max(kMinCwnd, src.cwnd / 2.0);
  src.decrease_blocked_until_s = now_s + config_.base_rtt_s;
}

void ClosedLoopSimulator::OnAck(std::size_t source, bool congestion_signal,
                                double now_s) {
  Source& src = sources_[source];
  if (congestion_signal) {
    Decrease(source, now_s);
  } else {
    // Additive increase: one segment per window's worth of acks.
    src.cwnd = std::min(kMaxCwnd, src.cwnd + 1.0 / src.cwnd);
  }
}

ClosedLoopReport ClosedLoopSimulator::Run() {
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

  report_.link = link_.TakeReport();
  return std::move(report_);
}

}  // namespace analognf::sim
