// Crossbar-backed perceptron: the neuromorphic substrate for the paper's
// future work (Sec. 8: "cognitive models deployment, e.g., neuromorphic
// computations, for self-learning line-rate network functions").
//
// Weights live as conductance *differential pairs* on a memristor
// crossbar (column G+ minus column G-, the standard trick for signed
// analog weights). Inference is one analog vector-matrix multiply; the
// weighted sum passes through a logistic squashing stage. Training is
// the online delta rule, realised as incremental conductance updates —
// the learning happens where the data is, with no weight shuttling.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "analognf/analog/crossbar.hpp"
#include "analognf/device/memristor.hpp"

namespace analognf::cognitive {

struct PerceptronConfig {
  std::size_t inputs = 4;  // feature count (a bias input is added inside)
  // Delta-rule learning rate.
  double learning_rate = 0.1;
  // Logistic gain applied to the analog weighted sum.
  double activation_gain = 1.0;
  std::uint64_t seed = 0x9e42;

  void Validate() const;  // throws std::invalid_argument
};

class CrossbarPerceptron {
 public:
  // Weight magnitude cap (keeps conductances programmable).
  static constexpr double kMaxWeight = 8.0;
  // Conductance representing one unit of |weight| [S]. With the
  // Nb:SrTiO3 range [1e-12, 1e-8] S of the crossbar's devices, unit
  // 1e-9 S leaves headroom for kMaxWeight.
  static constexpr double kWeightUnitSiemens = 1.0e-9;

  explicit CrossbarPerceptron(PerceptronConfig config);

  std::size_t inputs() const { return config_.inputs; }

  // Analog inference: features drive the crossbar rows as voltages
  // (plus a constant bias row); output = logistic(gain * (I+ - I-)).
  // Output is in (0, 1). Allocation-free.
  double Infer(const std::vector<double>& features);

  // One online delta-rule step toward `target` in [0, 1]:
  //   w_i += lr * (target - y) * x_i
  // followed by re-programming the conductance pairs. Returns the
  // prediction error (target - y) before the update.
  double Train(const std::vector<double>& features, double target);

  // Current signed weights (last entry is the bias).
  const std::vector<double>& weights() const { return weights_; }
  std::uint64_t updates() const { return updates_; }
  // Analog energy dissipated by all inferences so far.
  double ConsumedEnergyJ() const { return xbar_.ConsumedEnergyJ(); }

 private:
  void ProgramWeight(std::size_t index);

  PerceptronConfig config_;
  analog::Crossbar xbar_;  // (inputs + 1) rows x 2 columns (G+, G-)
  std::vector<double> weights_;
  // The last inference's row voltages (features, then the bias row's
  // 1.0) and column currents, reused so that no call allocates.
  std::vector<double> rows_;
  std::array<double, 2> currents_{};
  std::uint64_t updates_ = 0;
};

}  // namespace analognf::cognitive
