#include "analognf/aqm/pi2.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf::aqm {

void Pi2Config::Validate() const {
  // An infinite rate turns the PI update into inf * 0 = NaN.
  for (const double v : {target_delay_s, drain_rate_bps}) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("Pi2Config: non-finite value");
    }
  }
  if (!(target_delay_s > 0.0)) {
    throw std::invalid_argument("Pi2Config: target delay must be > 0");
  }
  if (!(drain_rate_bps > 0.0)) {
    throw std::invalid_argument("Pi2Config: drain_rate_bps <= 0");
  }
}

Pi2::Pi2(Pi2Config config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  config_.Validate();
}

double Pi2::mark_probability_l4s() const {
  return std::min(1.0, kCouplingK * base_prob_);
}

void Pi2::MaybeUpdate(double now_s, std::uint64_t queue_bytes) {
  if (!initialized_) {
    initialized_ = true;
    last_update_s_ = now_s;
    return;
  }
  if (now_s - last_update_s_ < kUpdateIntervalS) return;
  last_update_s_ = now_s;

  // Little's-law delay estimate, as in PIE.
  qdelay_s_ = static_cast<double>(queue_bytes) * 8.0 / config_.drain_rate_bps;

  // The PI update runs on p' directly — no gain-scale table. Squaring at
  // the drop law is what keeps the loop gain flat across operating
  // points (RFC 9332 Sec. 2.1).
  double p = base_prob_;
  p += kAlpha * (qdelay_s_ - config_.target_delay_s);
  p += kBeta * (qdelay_s_ - qdelay_old_s_);
  // Idle decay, as PIE's RFC 8033 Sec. 5.2 (dualpi2 keeps it too).
  if (qdelay_s_ == 0.0 && qdelay_old_s_ == 0.0) {
    p *= 0.98;
  }
  base_prob_ = std::clamp(p, 0.0, 1.0);
  qdelay_old_s_ = qdelay_s_;
}

AqmVerdict Pi2::DecideOnEnqueue(const AqmContext& ctx) {
  MaybeUpdate(ctx.now_s, ctx.queue_bytes);
  if (ctx.packet.ecn_capable) {
    // Scalable path: linear coupled marking, never drops (the FIFO's
    // capacity bound still tail-drops behind it under overload).
    return rng_.NextBernoulli(mark_probability_l4s()) ? AqmVerdict::kMark
                                                      : AqmVerdict::kAccept;
  }
  // Same safeguard as PIE: never drop into a tiny queue.
  if (ctx.queue_packets < 2) return AqmVerdict::kAccept;
  return rng_.NextBernoulli(base_prob_ * base_prob_) ? AqmVerdict::kDrop
                                                     : AqmVerdict::kAccept;
}

}  // namespace analognf::aqm
