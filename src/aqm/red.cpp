#include "analognf/aqm/red.hpp"

#include <algorithm>
#include <stdexcept>

namespace analognf::aqm {

void RedConfig::Validate() const {
  if (!(min_threshold_pkts >= 0.0) ||
      !(max_threshold_pkts > min_threshold_pkts)) {
    throw std::invalid_argument(
        "RedConfig: require 0 <= min_threshold < max_threshold");
  }
  if (!(max_p > 0.0) || max_p > 1.0) {
    throw std::invalid_argument("RedConfig: max_p must be in (0, 1]");
  }
  if (!(queue_weight > 0.0) || queue_weight > 1.0) {
    throw std::invalid_argument("RedConfig: queue_weight must be in (0, 1]");
  }
}

Red::Red(RedConfig config, std::uint64_t seed)
    : config_(config), rng_(seed), avg_(config.queue_weight) {
  config_.Validate();
}

double Red::DropProbability(double avg_pkts) {
  if (avg_pkts < config_.min_threshold_pkts) return 0.0;
  if (avg_pkts < config_.max_threshold_pkts) {
    return config_.max_p * (avg_pkts - config_.min_threshold_pkts) /
           (config_.max_threshold_pkts - config_.min_threshold_pkts);
  }
  if (avg_pkts < 2.0 * config_.max_threshold_pkts) {
    return config_.max_p +
           (1.0 - config_.max_p) *
               (avg_pkts - config_.max_threshold_pkts) /
               config_.max_threshold_pkts;
  }
  return 1.0;
}

AqmVerdict Red::DecideOnEnqueue(const AqmContext& ctx) {
  const double avg =
      avg_.Update(static_cast<double>(ctx.queue_packets));
  const double base_p = DropProbability(avg);
  if (base_p <= 0.0) {
    count_since_drop_ = 0;
    last_p_ = 0.0;
    return AqmVerdict::kAccept;
  }
  if (base_p >= 1.0) {
    count_since_drop_ = 0;
    last_p_ = 1.0;
    return AqmVerdict::kDrop;
  }
  // Uniform-spacing correction: p / (1 - count * p), clamped.
  const double denom =
      1.0 - static_cast<double>(count_since_drop_) * base_p;
  const double p = denom <= 0.0 ? 1.0 : std::min(1.0, base_p / denom);
  last_p_ = p;
  if (rng_.NextBernoulli(p)) {
    count_since_drop_ = 0;
    return AqmVerdict::kDrop;
  }
  ++count_since_drop_;
  return AqmVerdict::kAccept;
}

}  // namespace analognf::aqm
