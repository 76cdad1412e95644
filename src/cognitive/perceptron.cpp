#include "analognf/cognitive/perceptron.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf::cognitive {

void PerceptronConfig::Validate() const {
  if (inputs == 0) {
    throw std::invalid_argument("PerceptronConfig: zero inputs");
  }
  if (!(learning_rate > 0.0)) {
    throw std::invalid_argument("PerceptronConfig: learning_rate <= 0");
  }
  if (!(activation_gain > 0.0)) {
    throw std::invalid_argument("PerceptronConfig: activation_gain <= 0");
  }
}

CrossbarPerceptron::CrossbarPerceptron(PerceptronConfig config)
    : config_([&] {
        config.Validate();
        return config;
      }()),
      xbar_(config_.inputs + 1, 2, device::MemristorParams::NbSrTiO3(),
            nullptr, config_.seed),
      weights_(config_.inputs + 1, 0.0),
      rows_(config_.inputs + 1, 1.0) {
  for (std::size_t i = 0; i < weights_.size(); ++i) ProgramWeight(i);
}

void CrossbarPerceptron::ProgramWeight(std::size_t index) {
  // Differential pair: positive weight on G+, negative on G-. The idle
  // branch rests at the device's conductance floor.
  const double floor_siemens = 1.0 / xbar_.At(index, 0).params().r_hrs_ohm;
  const double w = weights_[index];
  const double g_pos =
      std::max(floor_siemens, std::max(w, 0.0) * kWeightUnitSiemens);
  const double g_neg =
      std::max(floor_siemens, std::max(-w, 0.0) * kWeightUnitSiemens);
  xbar_.At(index, 0).SetResistance(1.0 / g_pos);
  xbar_.At(index, 1).SetResistance(1.0 / g_neg);
}

double CrossbarPerceptron::Infer(const std::vector<double>& features) {
  if (features.size() != config_.inputs) {
    throw std::invalid_argument("CrossbarPerceptron::Infer: arity mismatch");
  }
  // rows_ ends in the bias row's constant 1.0.
  std::copy(features.begin(), features.end(), rows_.begin());
  xbar_.MultiplyInto(rows_, currents_);
  // Signed weighted sum, re-expressed in weight units.
  const double sum =
      (currents_[0] - currents_[1]) / kWeightUnitSiemens;
  return 1.0 / (1.0 + std::exp(-config_.activation_gain * sum));
}

double CrossbarPerceptron::Train(const std::vector<double>& features,
                                 double target) {
  if (!(target >= 0.0 && target <= 1.0)) {
    throw std::invalid_argument(
        "CrossbarPerceptron::Train: target outside [0, 1]");
  }
  const double y = Infer(features);  // leaves features + bias in rows_
  const double error = target - y;
  for (std::size_t i = 0; i < weights_.size(); ++i) {
    weights_[i] = std::clamp(
        weights_[i] + config_.learning_rate * error * rows_[i],
        -kMaxWeight, kMaxWeight);
    ProgramWeight(i);
  }
  ++updates_;
  return error;
}

}  // namespace analognf::cognitive
