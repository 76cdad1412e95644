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

struct AqmControllerConfig {
  // Proportional gain on the relative delay error per adaptation.
  double gain = 0.3;
  // Bounds on the threshold scale relative to the nominal program.
  double min_scale = 0.4;
  double max_scale = 2.0;

  void Validate() const;  // throws std::invalid_argument
};

class CognitiveAqmController {
 public:
  CognitiveAqmController(AnalogAqm& aqm, AqmControllerConfig config = {});

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
  AqmControllerConfig config_;
  analognf::RunningStats window_;
  double next_adapt_s_ = 0.0;
  bool armed_ = false;
  double scale_ = 1.0;
  std::uint64_t adaptations_ = 0;
};

}  // namespace analognf::aqm
