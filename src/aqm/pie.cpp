#include "analognf/aqm/pie.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analognf/common/units.hpp"

namespace analognf::aqm {

void PieConfig::Validate() const {
  // An infinite rate turns the PI update into inf * 0 = NaN.
  for (const double v : {target_delay_s, drain_rate_bps}) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("PieConfig: non-finite value");
    }
  }
  if (!(target_delay_s > 0.0)) {
    throw std::invalid_argument("PieConfig: target delay must be > 0");
  }
  if (!(drain_rate_bps > 0.0)) {
    throw std::invalid_argument("PieConfig: drain_rate_bps <= 0");
  }
}

Pie::Pie(PieConfig config, std::uint64_t seed)
    : config_(config), rng_(seed) {
  config_.Validate();
  burst_allowance_s_ = kMaxBurstS;
}

void Pie::MaybeUpdate(double now_s, std::uint64_t queue_bytes) {
  if (!initialized_) {
    initialized_ = true;
    last_update_s_ = now_s;
    return;
  }
  if (now_s - last_update_s_ < kUpdateIntervalS) return;
  last_update_s_ = now_s;

  // Little's-law delay estimate.
  qdelay_s_ = static_cast<double>(queue_bytes) * 8.0 / config_.drain_rate_bps;

  // RFC 8033 auto-tuning: scale gains down while p is small so the
  // controller does not slam between 0 and 1.
  double scale = 1.0;
  if (drop_prob_ < 0.000001) {
    scale = 1.0 / 2048.0;
  } else if (drop_prob_ < 0.00001) {
    scale = 1.0 / 512.0;
  } else if (drop_prob_ < 0.0001) {
    scale = 1.0 / 128.0;
  } else if (drop_prob_ < 0.001) {
    scale = 1.0 / 32.0;
  } else if (drop_prob_ < 0.01) {
    scale = 1.0 / 8.0;
  } else if (drop_prob_ < 0.1) {
    scale = 1.0 / 2.0;
  }

  const double prev_qdelay_s = qdelay_old_s_;
  double p = drop_prob_;
  p += scale * kAlpha * (qdelay_s_ - config_.target_delay_s);
  p += scale * kBeta * (qdelay_s_ - qdelay_old_s_);
  // RFC 8033 Sec. 5.2: exponentially decay p while the queue stays idle
  // (two consecutive zero-delay samples). The additive path alone crawls
  // at small p because of the gain scaling above.
  if (qdelay_s_ == 0.0 && qdelay_old_s_ == 0.0) {
    p *= 0.98;
  }
  drop_prob_ = std::clamp(p, 0.0, 1.0);
  qdelay_old_s_ = qdelay_s_;

  // Burst allowance decays once the controller is active.
  if (burst_allowance_s_ > 0.0) {
    burst_allowance_s_ =
        std::max(0.0, burst_allowance_s_ - kUpdateIntervalS);
  }
  // RFC 8033 Sec. 5.2 re-arm: the controller has fully backed off (p is
  // 0 after clamping) and both delay samples sit below target/2. The
  // delay condition is a band, not exact-zero equality: a clamped-but-
  // nonzero p or a near-empty (1-byte) queue must still re-arm.
  if (drop_prob_ == 0.0 &&
      qdelay_s_ < config_.target_delay_s / 2.0 &&
      prev_qdelay_s < config_.target_delay_s / 2.0) {
    burst_allowance_s_ = kMaxBurstS;
  }
}

AqmVerdict Pie::DecideOnEnqueue(const AqmContext& ctx) {
  MaybeUpdate(ctx.now_s, ctx.queue_bytes);
  if (burst_allowance_s_ > 0.0) return AqmVerdict::kAccept;
  // RFC 8033 safeguards: never drop into a tiny queue.
  if (ctx.queue_packets < 2) return AqmVerdict::kAccept;
  return rng_.NextBernoulli(drop_prob_) ? AqmVerdict::kDrop
                                        : AqmVerdict::kAccept;
}

}  // namespace analognf::aqm
