#include "analognf/aqm/controller.hpp"

#include <algorithm>
#include <cmath>

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

  // Reprogram the sojourn band at the new scale through the table's
  // update_pCAM action — the same path the paper's action section takes.
  const double lo_s = (c.target_delay_s - c.max_deviation_s) * scale_;
  const double hi_s = (c.target_delay_s + c.max_deviation_s) * scale_;
  if (!aqm_.ProgramBand(lo_s, hi_s)) return;  // clamped to one rail
  ++adaptations_;
}

}  // namespace analognf::aqm
