#include "analognf/aqm/controller.hpp"

#include <algorithm>
#include <cmath>

#include "analognf/analog/signal.hpp"

namespace analognf::aqm {
namespace {

// How often the controller considers reprogramming.
constexpr double kAdaptIntervalS = 0.5;
// Dead band: no adaptation while |mean - target| < kDeadBand * target.
constexpr double kDeadBand = 0.1;
// Proportional gain on the relative delay error per adaptation.
constexpr double kGain = 0.3;
// Bounds on the threshold scale relative to the nominal program.
constexpr double kMinScale = 0.4;
constexpr double kMaxScale = 2.0;

}  // namespace

CognitiveAqmController::CognitiveAqmController(AnalogAqm& aqm) : aqm_(aqm) {}

void CognitiveAqmController::ObserveDeparture(double now_s,
                                              double sojourn_s) {
  if (!armed_) {
    armed_ = true;
    next_adapt_s_ = now_s + kAdaptIntervalS;
  }
  window_.Add(sojourn_s);
  if (now_s >= next_adapt_s_) {
    Adapt(now_s);
    next_adapt_s_ = now_s + kAdaptIntervalS;
    window_.Reset();
  }
}

void CognitiveAqmController::Adapt(double now_s) {
  (void)now_s;
  if (window_.empty()) return;
  const AnalogAqmConfig& c = aqm_.config();
  const double target = c.target_delay_s;
  const double error = window_.mean() - target;
  if (std::abs(error) < kDeadBand * target) return;

  // Mean above target -> scale the ramp thresholds down (drop earlier);
  // below target -> relax them up.
  const double adjustment = 1.0 - kGain * (error / target);
  scale_ = std::clamp(scale_ * adjustment, kMinScale, kMaxScale);

  // Rebuild the sojourn base-stage program at the new scale and push it
  // through the table's update_pCAM action — the same path the paper's
  // action section takes.
  const double domain_hi = 2.0 * (c.target_delay_s + c.max_deviation_s);
  const analog::LinearMap sojourn_map(0.0, domain_hi, c.feature_range);
  const double lo_s = (c.target_delay_s - c.max_deviation_s) * scale_;
  const double hi_s = (c.target_delay_s + c.max_deviation_s) * scale_;
  const double v_lo = sojourn_map.ToVoltage(lo_s);
  const double v_hi = sojourn_map.ToVoltage(hi_s);
  if (!(v_lo < v_hi)) return;  // both clamped to the same rail: skip
  const double v_max = c.feature_range.hi_v;
  aqm_.table().UpdatePcam(
      "sojourn_time",
      core::PcamParams::MakeTrapezoid(v_lo, v_hi, v_max + 0.5, v_max + 1.0,
                                      /*pmax=*/1.0, /*pmin=*/0.0));
  ++adaptations_;
}

}  // namespace analognf::aqm
