// PI2 AQM (RFC 9332's Coupled AQM, single-queue form). Digital
// baseline for the dual-queue / L4S era.
//
// PI2 keeps PIE's PI controller but drops the small-p gain-scaling
// heuristic: the controller updates a *base* probability p' every
// t_update, and the coupling law derives the per-packet probabilities
// from it —
//
//   classic (drop)  : p_C = p'^2          (squared coupling)
//   scalable (mark) : p_L = min(k * p', 1)   with k = 2 by default
//
// Squaring p' is what linearises the controller for Reno/Cubic-style
// 1/sqrt(p) flows, so no operating-point-dependent gain table is needed
// (RFC 9332 Sec. 2.1); the linear k*p' path gives scalable (DCTCP-like
// or simply ECN-capable) traffic the early, frequent marks it expects.
// This implementation runs both laws over one FIFO: ECN-capable packets
// take the L4S mark path, the rest the squared drop path.
#pragma once

#include <cstdint>

#include "analognf/aqm/aqm.hpp"
#include "analognf/common/rng.hpp"

namespace analognf::aqm {

struct Pi2Config {
  double target_delay_s = 0.015;     // RFC 9332 PI2 target (15 ms)
  // Drain rate for the Little's-law delay estimate, bits/s.
  double drain_rate_bps = 10e6;

  void Validate() const;  // throws std::invalid_argument
};

class Pi2 final : public AqmPolicy {
 public:
  // Coupling factor k between the classic and scalable laws.
  static constexpr double kCouplingK = 2.0;
  // Tupdate (16 ms) and the PI gains on the *base* probability p',
  // applied once per update (the same convention as Pie): De Schepper et
  // al.'s tuning at that Tupdate. No PIE-style auto-tuning table —
  // squaring replaces it (RFC 9332 Sec. 2.1).
  static constexpr double kUpdateIntervalS = 0.016;
  static constexpr double kAlpha = 0.3125;
  static constexpr double kBeta = 3.125;

  Pi2(Pi2Config config, std::uint64_t seed);

  // Classic path: Bernoulli(p'^2) drop. Native L4S path: ECN-capable
  // packets are CE-marked with probability min(k*p', 1) instead.
  AqmVerdict DecideOnEnqueue(const AqmContext& ctx) override;
  // Reports the classic (drop-path) probability p'^2.
  double LastDropProbability() const override {
    return base_prob_ * base_prob_;
  }

  double base_probability() const { return base_prob_; }
  double mark_probability_l4s() const;
  double current_delay_estimate_s() const { return qdelay_s_; }

 private:
  void MaybeUpdate(double now_s, std::uint64_t queue_bytes);

  Pi2Config config_;
  analognf::RandomStream rng_;
  double base_prob_ = 0.0;  // p'
  double qdelay_s_ = 0.0;
  double qdelay_old_s_ = 0.0;
  double last_update_s_ = 0.0;
  bool initialized_ = false;
};

}  // namespace analognf::aqm
