// Proportional Integral controller Enhanced AQM (PIE, RFC 8033).
// Digital baseline.
//
// PIE estimates queueing delay from the instantaneous queue length and a
// drain-rate estimate, then updates a drop probability with a PI
// controller every t_update: p += alpha*(delay - target) +
// beta*(delay - delay_old). Packets are randomly dropped at enqueue with
// probability p, with a burst allowance that suppresses drops after idle
// periods.
#pragma once

#include <cstdint>

#include "analognf/aqm/aqm.hpp"
#include "analognf/common/rng.hpp"

namespace analognf::aqm {

struct PieConfig {
  double target_delay_s = 0.015;      // RFC 8033 QDELAY_REF (15 ms)
  // Drain rate used for the delay estimate (Little's law), bytes/s.
  // RFC 8033 measures this; the simulator knows its link rate and
  // passes it in.
  double drain_rate_bps = 10e6;

  void Validate() const;  // throws std::invalid_argument
};

class Pie final : public AqmPolicy {
 public:
  // RFC 8033 MAX_BURST: the burst allowance granted at start and re-armed
  // after the queue drains.
  static constexpr double kMaxBurstS = 0.150;
  // RFC 8033 T_UPDATE and the PI gains applied once per update: alpha
  // on the delay error, beta on its change since the last update [1/s].
  static constexpr double kUpdateIntervalS = 0.015;
  static constexpr double kAlpha = 0.125;
  static constexpr double kBeta = 1.25;

  Pie(PieConfig config, std::uint64_t seed);

  AqmVerdict DecideOnEnqueue(const AqmContext& ctx) override;
  double LastDropProbability() const override { return drop_prob_; }

  double current_delay_estimate_s() const { return qdelay_s_; }
  // Remaining burst allowance (RFC 8033 burst_allowance); exposed so the
  // Sec. 5.2 re-arm behaviour is directly testable.
  double burst_allowance_s() const { return burst_allowance_s_; }

 private:
  void MaybeUpdate(double now_s, std::uint64_t queue_bytes);

  PieConfig config_;
  analognf::RandomStream rng_;
  double drop_prob_ = 0.0;
  double qdelay_s_ = 0.0;
  double qdelay_old_s_ = 0.0;
  double last_update_s_ = 0.0;
  double burst_allowance_s_ = 0.0;
  bool initialized_ = false;
};

}  // namespace analognf::aqm
