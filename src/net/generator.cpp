#include "analognf/net/generator.hpp"

#include <cmath>
#include <stdexcept>

namespace analognf::net {
namespace {

// Fraction of a MetaSource's flows marked high priority.
constexpr double kHighPriorityFraction = 0.25;

// Deterministic flow hash for synthetic flow `i` under generator `salt`.
std::uint64_t SyntheticFlowHash(std::uint64_t salt, std::uint32_t i) {
  analognf::SplitMix64 sm(salt ^ (0x9e37ULL << 32) ^ i);
  return sm.Next();
}

void BuildFlows(std::uint64_t salt, std::uint32_t flows,
                double ecn_capable_fraction,
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
      kHighPriorityFraction * static_cast<double>(flows) + 0.5);
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

// ------------------------------------------------------------- arrivals

void ArrivalConfig::Validate() const {
  auto positive = [](double x) { return std::isfinite(x) && x > 0.0; };
  if (!positive(rate_pps)) {
    throw std::invalid_argument("ArrivalConfig: rate_pps not finite > 0");
  }
  if (!positive(burst_factor)) {
    throw std::invalid_argument("ArrivalConfig: burst_factor not finite > 0");
  }
  if (!positive(mean_calm_dwell_s) || !positive(mean_burst_dwell_s)) {
    throw std::invalid_argument(
        "ArrivalConfig: dwell times must be finite and positive");
  }
}

ArrivalProcess::ArrivalProcess(ArrivalConfig config,
                               analognf::RandomStream& rng)
    : config_(config) {
  config_.Validate();
  if (config_.process != ArrivalConfig::Process::kPoisson) {
    state_ends_s_ = rng.NextExponential(1.0 / config_.mean_calm_dwell_s);
  }
}

double ArrivalProcess::Next(analognf::RandomStream& rng) {
  if (config_.process == ArrivalConfig::Process::kPoisson) {
    now_s_ += rng.NextExponential(config_.rate_pps);
    return now_s_;
  }
  // kMmpp and kOnOff share the two-state machine; they differ only in
  // the calm-state rate (reduced vs zero). State transitions before the
  // candidate arrival discard it — exact by memorylessness.
  for (;;) {
    const bool on_off = config_.process == ArrivalConfig::Process::kOnOff;
    const double burst_rate = config_.rate_pps * config_.burst_factor;
    const double calm_rate = on_off ? 0.0 : config_.rate_pps;
    const double rate = in_burst_ ? burst_rate : calm_rate;
    if (rate > 0.0) {
      const double candidate = now_s_ + rng.NextExponential(rate);
      if (candidate <= state_ends_s_) {
        now_s_ = candidate;
        return now_s_;
      }
    }
    now_s_ = state_ends_s_;
    in_burst_ = !in_burst_;
    const double dwell =
        in_burst_ ? config_.mean_burst_dwell_s : config_.mean_calm_dwell_s;
    state_ends_s_ = now_s_ + rng.NextExponential(1.0 / dwell);
  }
}

void ArrivalProcess::SetRate(double rate_pps) {
  if (!std::isfinite(rate_pps) || !(rate_pps > 0.0)) {
    throw std::invalid_argument("ArrivalProcess::SetRate: rate not finite > 0");
  }
  config_.rate_pps = rate_pps;
}

std::uint32_t ImixBytes(analognf::RandomStream& rng) {
  const std::uint64_t bucket = rng.NextIndex(12);
  if (bucket < 7) return 64;
  if (bucket < 11) return 576;
  return 1500;
}

// ---------------------------------------------------------- meta source

MetaSource::MetaSource(MetaSourceConfig config, std::uint64_t seed)
    : config_(config), rng_(seed), arrivals_(config.arrivals, rng_) {
  if (config_.size_bytes == 0) {
    throw std::invalid_argument("MetaSource: zero packet size");
  }
  // Positive form: a NaN fraction fails it before BuildFlows casts it.
  if (!(config_.ecn_capable_fraction >= 0.0 &&
        config_.ecn_capable_fraction <= 1.0)) {
    throw std::invalid_argument("MetaSource: ECN fraction outside [0,1]");
  }
  // The per-process salts keep recorded outputs bit-identical.
  const bool poisson =
      config_.arrivals.process == ArrivalConfig::Process::kPoisson;
  BuildFlows(poisson ? seed : seed ^ 0x33bb, config_.flows,
             config_.ecn_capable_fraction, flow_hashes_, flow_priorities_,
             flow_ect_);
}

PacketMeta MetaSource::Next() {
  PacketMeta p;
  p.arrival_time_s = arrivals_.Next(rng_);
  const auto flow = static_cast<std::size_t>(rng_.NextIndex(config_.flows));
  p.id = next_id_++;
  p.size_bytes = config_.size_bytes;
  p.flow_hash = flow_hashes_[flow];
  p.priority = flow_priorities_[flow];
  p.ecn_capable = flow_ect_[flow];
  return p;
}

}  // namespace analognf::net
