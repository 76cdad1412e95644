#include "analognf/net/generator.hpp"

#include <stdexcept>
#include <utility>

namespace analognf::net {
namespace {

// Deterministic flow hash for synthetic flow `i` under generator `salt`.
std::uint64_t SyntheticFlowHash(std::uint64_t salt, std::uint32_t i) {
  analognf::SplitMix64 sm(salt ^ (0x9e37ULL << 32) ^ i);
  return sm.Next();
}

void BuildFlows(std::uint64_t salt, std::uint32_t flows,
                double high_priority_fraction, double ecn_capable_fraction,
                std::vector<std::uint64_t>& hashes,
                std::vector<std::uint8_t>& priorities,
                std::vector<bool>& ect) {
  if (flows == 0) {
    throw std::invalid_argument("traffic generator: flows == 0");
  }
  hashes.reserve(flows);
  priorities.reserve(flows);
  ect.reserve(flows);
  const auto high_count = static_cast<std::uint32_t>(
      high_priority_fraction * static_cast<double>(flows) + 0.5);
  const auto ect_count = static_cast<std::uint32_t>(
      ecn_capable_fraction * static_cast<double>(flows) + 0.5);
  for (std::uint32_t i = 0; i < flows; ++i) {
    hashes.push_back(SyntheticFlowHash(salt, i));
    priorities.push_back(i < high_count ? std::uint8_t{7} : std::uint8_t{0});
    // ECT flows are counted from the tail so the two traits cross-cut.
    ect.push_back(flows - 1 - i < ect_count);
  }
}

}  // namespace

FixedSize::FixedSize(std::uint32_t bytes) : bytes_(bytes) {
  if (bytes == 0) throw std::invalid_argument("FixedSize: zero bytes");
}

std::uint32_t FixedSize::Sample(analognf::RandomStream&) { return bytes_; }

std::uint32_t ImixSize::Sample(analognf::RandomStream& rng) {
  const std::uint64_t bucket = rng.NextIndex(12);
  if (bucket < 7) return 64;
  if (bucket < 11) return 576;
  return 1500;
}

PoissonGenerator::PoissonGenerator(Config config,
                                   std::unique_ptr<SizeModel> sizes,
                                   std::uint64_t seed)
    : config_(config), sizes_(std::move(sizes)), rng_(seed) {
  if (!(config_.rate_pps > 0.0)) {
    throw std::invalid_argument("PoissonGenerator: rate_pps <= 0");
  }
  if (sizes_ == nullptr) {
    throw std::invalid_argument("PoissonGenerator: null size model");
  }
  BuildFlows(seed, config_.flows, config_.high_priority_fraction,
             config_.ecn_capable_fraction, flow_hashes_, flow_priorities_,
             flow_ect_);
}

PacketMeta PoissonGenerator::Next() {
  now_s_ += rng_.NextExponential(config_.rate_pps);
  const auto flow = static_cast<std::size_t>(rng_.NextIndex(config_.flows));
  PacketMeta p;
  p.id = next_id_++;
  p.arrival_time_s = now_s_;
  p.size_bytes = sizes_->Sample(rng_);
  p.flow_hash = flow_hashes_[flow];
  p.priority = flow_priorities_[flow];
  p.ecn_capable = flow_ect_[flow];
  return p;
}

void PoissonGenerator::SetRate(double rate_pps) {
  if (!(rate_pps > 0.0)) {
    throw std::invalid_argument("PoissonGenerator::SetRate: rate <= 0");
  }
  config_.rate_pps = rate_pps;
}

CbrGenerator::CbrGenerator(double rate_pps, std::uint32_t size_bytes,
                           std::uint64_t flow_hash, std::uint8_t priority)
    : interval_s_(1.0 / rate_pps),
      size_bytes_(size_bytes),
      flow_hash_(flow_hash),
      priority_(priority) {
  if (!(rate_pps > 0.0)) {
    throw std::invalid_argument("CbrGenerator: rate_pps <= 0");
  }
  if (size_bytes == 0) {
    throw std::invalid_argument("CbrGenerator: zero packet size");
  }
}

PacketMeta CbrGenerator::Next() {
  now_s_ += interval_s_;
  PacketMeta p;
  p.id = next_id_++;
  p.arrival_time_s = now_s_;
  p.size_bytes = size_bytes_;
  p.flow_hash = flow_hash_;
  p.priority = priority_;
  return p;
}

MmppGenerator::MmppGenerator(Config config, std::unique_ptr<SizeModel> sizes,
                             std::uint64_t seed)
    : config_(config), sizes_(std::move(sizes)), rng_(seed) {
  if (!(config_.calm_rate_pps > 0.0) || !(config_.burst_rate_pps > 0.0)) {
    throw std::invalid_argument("MmppGenerator: rates must be positive");
  }
  if (!(config_.mean_calm_dwell_s > 0.0) ||
      !(config_.mean_burst_dwell_s > 0.0)) {
    throw std::invalid_argument("MmppGenerator: dwell times must be positive");
  }
  if (sizes_ == nullptr) {
    throw std::invalid_argument("MmppGenerator: null size model");
  }
  BuildFlows(seed ^ 0x33bb, config_.flows, config_.high_priority_fraction,
             config_.ecn_capable_fraction, flow_hashes_, flow_priorities_,
             flow_ect_);
  state_ends_s_ = rng_.NextExponential(1.0 / config_.mean_calm_dwell_s);
}

PacketMeta MmppGenerator::Next() {
  for (;;) {
    const double rate =
        in_burst_ ? config_.burst_rate_pps : config_.calm_rate_pps;
    const double candidate = now_s_ + rng_.NextExponential(rate);
    if (candidate <= state_ends_s_) {
      now_s_ = candidate;
      break;
    }
    // State transition before the candidate arrival: discard it
    // (memorylessness makes this exact) and switch state.
    now_s_ = state_ends_s_;
    in_burst_ = !in_burst_;
    const double dwell = in_burst_ ? config_.mean_burst_dwell_s
                                   : config_.mean_calm_dwell_s;
    state_ends_s_ = now_s_ + rng_.NextExponential(1.0 / dwell);
  }
  const auto flow = static_cast<std::size_t>(rng_.NextIndex(config_.flows));
  PacketMeta p;
  p.id = next_id_++;
  p.arrival_time_s = now_s_;
  p.size_bytes = sizes_->Sample(rng_);
  p.flow_hash = flow_hashes_[flow];
  p.priority = flow_priorities_[flow];
  p.ecn_capable = flow_ect_[flow];
  return p;
}

}  // namespace analognf::net
