#include "analognf/cognitive/learned_aqm.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf::cognitive {
namespace {

// Feature normalisation, as in the programmed AQM: buffer occupancy by a
// reference size, and the first derivatives by their full scale (s/s).
constexpr double kBufferReferenceBytes = 150000.0;
constexpr double kDerivativeFullScale = 2.0;
// Analog bandwidth of the derivative chains.
constexpr double kDerivativeTimeConstantS = 0.005;

}  // namespace

void LearnedAqmConfig::Validate() const {
  // An infinite bound turns the teacher ramp and the feature
  // normalisation into inf/inf = NaN, which the perceptron would train on.
  for (const double v : {target_delay_s, max_deviation_s}) {
    if (!std::isfinite(v)) {
      throw std::invalid_argument("LearnedAqmConfig: non-finite value");
    }
  }
  if (!(target_delay_s > 0.0) || !(max_deviation_s > 0.0) ||
      max_deviation_s >= target_delay_s) {
    throw std::invalid_argument(
        "LearnedAqmConfig: require 0 < deviation < target");
  }
}

LearnedAqm::LearnedAqm(LearnedAqmConfig config)
    : config_([&] {
        config.Validate();
        return config;
      }()),
      // One input per feature of ExtractFeatures, and the tuning under
      // which the blank crossbar converges within the first seconds of
      // the Fig. 8 workload.
      perceptron_({.inputs = kFeatures,
                   .learning_rate = 0.25,
                   .activation_gain = 4.0,
                   .seed = config_.seed ^ 0xbb}),
      sojourn_chain_(1, kDerivativeTimeConstantS),
      buffer_chain_(1, kDerivativeTimeConstantS),
      rng_(config_.seed) {}

double LearnedAqm::TeacherPdp(double sojourn_s) const {
  const double lo = config_.target_delay_s - config_.max_deviation_s;
  const double hi = config_.target_delay_s + config_.max_deviation_s;
  return std::clamp((sojourn_s - lo) / (hi - lo), 0.0, 1.0);
}

void LearnedAqm::ExtractFeatures(const aqm::AqmContext& ctx) {
  const auto& sojourn = sojourn_chain_.Step(ctx.now_s, ctx.sojourn_s);
  const auto& buffer = buffer_chain_.Step(
      ctx.now_s,
      static_cast<double>(ctx.queue_bytes) / kBufferReferenceBytes);
  // Normalised to roughly [-1, 1] so the perceptron's weight range and
  // the crossbar's voltage range are used sensibly.
  const double bound =
      2.0 * (config_.target_delay_s + config_.max_deviation_s);
  features_[0] = std::clamp(sojourn[0] / bound, 0.0, 1.0);
  features_[1] =
      std::clamp(sojourn[1] / kDerivativeFullScale, -1.0, 1.0);
  features_[2] = std::clamp(buffer[0], 0.0, 1.5);
  features_[3] = std::clamp(
      buffer[1] / (2.0 * kDerivativeFullScale), -1.0, 1.0);
}

aqm::AqmVerdict LearnedAqm::DecideOnEnqueue(const aqm::AqmContext& ctx) {
  ExtractFeatures(ctx);
  // Train-then-act: one delta-rule step toward the self-supervision
  // target, then use the updated law for this packet's decision.
  perceptron_.Train(features_, TeacherPdp(ctx.sojourn_s));
  const double pdp = perceptron_.Infer(features_);
  last_pdp_ = pdp;
  ++decisions_;
  return rng_.NextBernoulli(pdp) ? aqm::AqmVerdict::kDrop
                                 : aqm::AqmVerdict::kAccept;
}

}  // namespace analognf::cognitive
