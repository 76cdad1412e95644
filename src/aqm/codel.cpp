#include "analognf/aqm/codel.hpp"

#include <cmath>
#include <stdexcept>

namespace analognf::aqm {

void CodelConfig::Validate() const {
  if (!(target_s > 0.0) || !(interval_s > 0.0) || !std::isfinite(target_s) ||
      !std::isfinite(interval_s)) {
    throw std::invalid_argument(
        "CodelConfig: target and interval must be finite > 0");
  }
}

Codel::Codel(CodelConfig config) : config_(config) { config_.Validate(); }

double Codel::ControlLawNext(double t) const {
  return t + config_.interval_s / std::sqrt(static_cast<double>(count_));
}

bool Codel::ShouldDropOnDequeue(const AqmContext& ctx) {
  const double now = ctx.now_s;
  const double sojourn = ctx.sojourn_s;

  // --- dodeque: is the delay below target (or queue nearly empty)? ---
  bool ok_to_drop = false;
  if (sojourn < config_.target_s || ctx.queue_bytes <= ctx.packet.size_bytes) {
    first_above_time_s_ = 0.0;
  } else {
    if (first_above_time_s_ == 0.0) {
      first_above_time_s_ = now + config_.interval_s;
    } else if (now >= first_above_time_s_) {
      ok_to_drop = true;
    }
  }

  if (dropping_) {
    if (!ok_to_drop) {
      dropping_ = false;
      return false;
    }
    if (now >= drop_next_s_) {
      ++count_;
      drop_next_s_ = ControlLawNext(drop_next_s_);
      return true;
    }
    return false;
  }

  if (ok_to_drop) {
    dropping_ = true;
    // RFC 8289 re-entry rule: resume from the number of drops the last
    // dropping episode needed (delta = count - lastcount) if that episode
    // ended recently (within 16 intervals of drop_next), else restart
    // from 1. This keeps the control law's operating point across brief
    // recoveries instead of re-learning the drop rate from scratch.
    const std::uint32_t delta = count_ - lastcount_;
    if (delta > 1 && now - drop_next_s_ < 16.0 * config_.interval_s) {
      count_ = delta;
    } else {
      count_ = 1;
    }
    lastcount_ = count_;
    drop_next_s_ = ControlLawNext(now);
    return true;
  }
  return false;
}

}  // namespace analognf::aqm
