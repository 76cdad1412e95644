// Self-learning analog AQM (future work, Sec. 8(2)).
//
// Instead of hand-programming the pCAM transfer functions (Fig. 6), this
// policy *learns* the drop law online: queue features (sojourn, its
// first derivative, buffer occupancy and its derivative) feed a
// crossbar perceptron whose output is the PDP. The teaching signal is
// self-supervised — the ideal PDP ramp implied by the programmed latency
// bound — so after a convergence period the learned law reproduces (and
// with the derivative features, anticipates) the programmed behaviour
// without any explicit pCAM parameters.
#pragma once

#include <cstdint>
#include <vector>

#include "analognf/analog/differentiator.hpp"
#include "analognf/aqm/aqm.hpp"
#include "analognf/cognitive/perceptron.hpp"
#include "analognf/common/rng.hpp"

namespace analognf::cognitive {

struct LearnedAqmConfig {
  // The latency bound the self-supervision teaches toward.
  double target_delay_s = 0.020;
  double max_deviation_s = 0.010;
  // Seeds the drop draws; the perceptron's crossbar gets `seed ^ 0xbb`.
  std::uint64_t seed = 0x1ea4;

  void Validate() const;  // throws std::invalid_argument
};

class LearnedAqm final : public aqm::AqmPolicy {
 public:
  explicit LearnedAqm(LearnedAqmConfig config);

  aqm::AqmVerdict DecideOnEnqueue(const aqm::AqmContext& ctx) override;
  double LastDropProbability() const override { return last_pdp_; }

  // The self-supervision target for a given sojourn time: the ideal
  // PDP ramp of the programmed bound.
  double TeacherPdp(double sojourn_s) const;

  CrossbarPerceptron& perceptron() { return perceptron_; }
  const CrossbarPerceptron& perceptron() const { return perceptron_; }
  std::uint64_t decisions() const { return decisions_; }
  double ConsumedEnergyJ() const { return perceptron_.ConsumedEnergyJ(); }

 private:
  // Sojourn, its derivative, buffer occupancy and its derivative.
  static constexpr std::size_t kFeatures = 4;

  // Fills features_ for this decision.
  void ExtractFeatures(const aqm::AqmContext& ctx);

  LearnedAqmConfig config_;
  CrossbarPerceptron perceptron_;
  analog::DerivativeChain sojourn_chain_;
  analog::DerivativeChain buffer_chain_;
  analognf::RandomStream rng_;
  std::vector<double> features_ = std::vector<double>(kFeatures);
  double last_pdp_ = 0.0;
  std::uint64_t decisions_ = 0;
};

}  // namespace analognf::cognitive
