// Cognitive controller for the analog AQM.
//
// Sec. 5: the second-order derivative provides "accurate PDP estimation
// and adaptation of AQM parameters", and the action section of the
// analogAQM table "updates the pCAM parameters M1-M4, Sa, Sb, pmax and
// pmin through function update_pCAM()". This controller closes that
// loop in software, the way the cognitive network controller of Fig. 5
// would: it observes departures, compares the achieved delay against the
// programmed target, and reprograms the sojourn stage's thresholds
// through the table's update_pCAM action.
#pragma once

#include <cstdint>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/common/stats.hpp"

namespace analognf::aqm {

class CognitiveAqmController {
 public:
  explicit CognitiveAqmController(AnalogAqm& aqm);

  // Feeds one departure observation (measured sojourn). May trigger an
  // update_pCAM reprogramming of the sojourn stage.
  void ObserveDeparture(double now_s, double sojourn_s);

  // Number of update_pCAM reprogrammings issued so far.
  std::uint64_t adaptations() const { return adaptations_; }
  // Current threshold scale relative to the nominal program (1.0 = as
  // originally programmed).
  double current_scale() const { return scale_; }

 private:
  void Adapt(double now_s);

  AnalogAqm& aqm_;
  analognf::RunningStats window_;
  double next_adapt_s_ = 0.0;
  bool armed_ = false;
  double scale_ = 1.0;
  std::uint64_t adaptations_ = 0;
};

}  // namespace analognf::aqm
