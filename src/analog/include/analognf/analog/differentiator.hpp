// Analog derivative computation for cognitive feature extraction.
//
// The paper's analog AQM (Fig. 6) feeds the pCAM pipeline with the 1st,
// 2nd and 3rd-order derivatives of sojourn time and buffer size,
// "computed by the analog components" (citing memristor-based
// programmable analog ICs and PDE solvers). Behaviourally, an analog
// differentiator is a band-limited d/dt: we model it as a first-order
// low-pass smoother followed by a finite difference on the smoothed
// signal, which captures both the derivative action and the finite
// bandwidth that keeps real differentiators from amplifying noise
// without bound.
#pragma once

#include <array>
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace analognf::analog {

// Single-stage band-limited differentiator. Feed time-stamped samples of
// x(t); Output() is the estimate of dx/dt.
class Differentiator {
 public:
  // `time_constant_s` is the RC constant of the input smoother
  // (> 0; smaller = wider bandwidth = noisier derivative).
  explicit Differentiator(double time_constant_s);

  // Processes a sample at time `t_s` (strictly increasing after the
  // first sample) and returns the current derivative estimate. The first
  // sample initialises the stage and yields 0.
  double Step(double t_s, double x);

  double Output() const { return output_; }

 private:
  friend class DerivativeChain;

  // Hot-path Step for a stage already known to be primed with dt > 0 and
  // alpha = 1 - exp(-dt/tau) precomputed by the caller. Identical
  // arithmetic to Step(); DerivativeChain uses it to compute the exp once
  // per chain sample instead of once per stage.
  double StepWithAlpha(double t_s, double dt, double alpha, double x) {
    const double prev_smoothed = smoothed_;
    smoothed_ += alpha * (x - smoothed_);
    output_ = (smoothed_ - prev_smoothed) / dt;
    last_t_s_ = t_s;
    return output_;
  }

  double time_constant_s_;
  bool primed_ = false;
  double last_t_s_ = 0.0;
  double smoothed_ = 0.0;
  double output_ = 0.0;
};

// A cascade of differentiators producing x, x', x'', ... up to
// `max_order` (the paper uses max_order = 3). Order 0 is the (smoothed)
// input itself.
class DerivativeChain {
 public:
  static constexpr std::size_t kMaxSupportedOrder = 5;

  // max_order in [1, kMaxSupportedOrder].
  DerivativeChain(std::size_t max_order, double time_constant_s);

  // Feeds one sample; returns derivatives[0..max_order] where
  // derivatives[k] is the k-th order estimate.
  const std::vector<double>& Step(double t_s, double x);

  const std::vector<double>& outputs() const { return outputs_; }
  std::size_t max_order() const { return stages_.size(); }

 private:
  std::vector<Differentiator> stages_;
  std::vector<double> outputs_;
  // Every stage shares the same timestamp history (they are fed in one
  // cascade), so dt — and therefore alpha — is chain-wide. Tracking it
  // here lets Step() take the coincident-sample hold path without touching
  // any stage, and compute/cache the exp() once for dt > 0.
  double time_constant_s_ = 0.0;
  bool primed_ = false;
  double last_t_s_ = 0.0;
  double cached_dt_ = -1.0;
  double cached_alpha_ = 0.0;
};

}  // namespace analognf::analog
