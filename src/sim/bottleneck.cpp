#include "analognf/sim/bottleneck.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf::sim {

void LinkConfig::Validate() const {
  if (!std::isfinite(duration_s) || !(duration_s > 0.0)) {
    throw std::invalid_argument("LinkConfig: duration not finite > 0");
  }
  if (!(warmup_s >= 0.0) || warmup_s >= duration_s) {
    throw std::invalid_argument("LinkConfig: warmup outside [0, duration)");
  }
  if (!std::isfinite(link_rate_bps) || !(link_rate_bps > 0.0)) {
    throw std::invalid_argument("LinkConfig: link rate not finite > 0");
  }
}

double LinkReport::DropRate() const {
  if (offered_packets == 0) return 0.0;
  return static_cast<double>(dropped_packets) /
         static_cast<double>(offered_packets);
}

double LinkReport::DelayFractionWithin(double lo_s, double hi_s) const {
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

double LinkReport::FairnessIndex(double per) const {
  if (delivered_by_flow.empty()) return 0.0;
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const auto& [flow, delivered] : delivered_by_flow) {
    const double d = static_cast<double>(delivered) / per;
    sum += d;
    sum_sq += d * d;
  }
  if (sum_sq <= 0.0) return 0.0;
  const auto n = static_cast<double>(delivered_by_flow.size());
  return sum * sum / (n * sum_sq);
}

Bottleneck::Bottleneck(const LinkConfig& config, aqm::AqmPolicy& policy,
                       EventQueue& events, std::uint32_t departure_kind)
    : config_(config),
      events_(events),
      departure_kind_(departure_kind),
      queue_(config.queue, policy) {
  config_.Validate();
  report_.duration_s = config_.duration_s;
  report_.warmup_s = config_.warmup_s;
}

bool Bottleneck::Offer(const net::PacketMeta& packet) {
  ++report_.offered_packets;
  const aqm::Admission admission = queue_.Offer(packet, events_.now());
  if (admission == aqm::Admission::kAqmDropped ||
      admission == aqm::Admission::kTailDropped) {
    return false;
  }
  StartServiceIfIdle();
  return true;
}

std::uint64_t& Bottleneck::DeliveriesOf(std::uint64_t flow) {
  auto& flows = report_.delivered_by_flow;
  // Dense flow ids (the closed loop's source indices) sit at their index.
  if (flow < flows.size() && flows[flow].first == flow) {
    return flows[flow].second;
  }
  auto it = std::partition_point(
      flows.begin(), flows.end(),
      [flow](const auto& entry) { return entry.first < flow; });
  if (it == flows.end() || it->first != flow) {
    it = flows.insert(it, {flow, 0});
  }
  return it->second;
}

void Bottleneck::Deliver(const net::DequeuedPacket& delivered, double now) {
  report_.delay.Append(now, delivered.sojourn_s);
  ++report_.delivered_packets;
  if (now >= config_.warmup_s) {
    report_.delay_stats.Add(delivered.sojourn_s);
    ++DeliveriesOf(delivered.meta.flow_hash);
  }
}

void Bottleneck::StartServiceIfIdle() {
  if (busy_) return;
  const net::PacketMeta* head = queue_.queue().Peek();
  if (head == nullptr) return;
  busy_ = true;
  events_.ScheduleIn(
      static_cast<double>(head->size_bytes) * 8.0 / config_.link_rate_bps,
      departure_kind_);
}

LinkReport Bottleneck::TakeReport() {
  const net::QueueStats& stats = queue_.queue().stats();
  report_.dropped_packets = stats.dropped_full + stats.dropped_aqm;
  report_.residual_packets = queue_.queue().packets();
  report_.marked_packets = queue_.marks();
  return std::move(report_);
}

}  // namespace analognf::sim
