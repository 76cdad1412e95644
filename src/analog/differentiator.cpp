#include "analognf/analog/differentiator.hpp"

#include <cmath>

namespace analognf::analog {

Differentiator::Differentiator(double time_constant_s)
    : time_constant_s_(time_constant_s) {
  if (!(time_constant_s > 0.0)) {
    throw std::invalid_argument("Differentiator: time constant <= 0");
  }
}

double Differentiator::Step(double t_s, double x) {
  if (!primed_) {
    primed_ = true;
    last_t_s_ = t_s;
    smoothed_ = x;
    output_ = 0.0;
    return output_;
  }
  const double dt = t_s - last_t_s_;
  if (dt < 0.0) {
    throw std::invalid_argument("Differentiator::Step: time went backwards");
  }
  if (dt == 0.0) return output_;  // coincident sample: hold output
  // First-order low-pass with exact discretisation, then finite
  // difference of the smoothed signal.
  const double alpha = 1.0 - std::exp(-dt / time_constant_s_);
  const double prev_smoothed = smoothed_;
  smoothed_ += alpha * (x - smoothed_);
  output_ = (smoothed_ - prev_smoothed) / dt;
  last_t_s_ = t_s;
  return output_;
}

DerivativeChain::DerivativeChain(std::size_t max_order,
                                 double time_constant_s)
    : time_constant_s_(time_constant_s) {
  if (max_order < 1 || max_order > kMaxSupportedOrder) {
    throw std::invalid_argument(
        "DerivativeChain: max_order out of [1, kMaxSupportedOrder]");
  }
  stages_.reserve(max_order);
  for (std::size_t i = 0; i < max_order; ++i) {
    stages_.emplace_back(time_constant_s);
  }
  outputs_.assign(max_order + 1, 0.0);
}

const std::vector<double>& DerivativeChain::Step(double t_s, double x) {
  outputs_[0] = x;
  if (!primed_) {
    // First sample primes every stage through the cascade (stage k sees
    // the zero output of stage k-1), exactly as per-stage Step() does.
    primed_ = true;
    last_t_s_ = t_s;
    double value = x;
    for (std::size_t i = 0; i < stages_.size(); ++i) {
      value = stages_[i].Step(t_s, value);
      outputs_[i + 1] = value;
    }
    return outputs_;
  }
  const double dt = t_s - last_t_s_;
  if (dt < 0.0) {
    throw std::invalid_argument("Differentiator::Step: time went backwards");
  }
  if (dt == 0.0) {
    // Coincident sample: every stage holds its output, so outputs_[1..]
    // already contain exactly what per-stage Step() would return. Only
    // the order-0 lane (the raw input) updates. This is the common case
    // in batched processing, where a whole batch shares one timestamp.
    return outputs_;
  }
  // One exp() per chain sample: all stages share the same dt and time
  // constant, so alpha is chain-wide — and dt itself repeats across
  // samples on a fixed-tick clock, so cache the last mapping too.
  if (dt != cached_dt_) {
    cached_dt_ = dt;
    cached_alpha_ = 1.0 - std::exp(-dt / time_constant_s_);
  }
  double value = x;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    value = stages_[i].StepWithAlpha(t_s, dt, cached_alpha_, value);
    outputs_[i + 1] = value;
  }
  last_t_s_ = t_s;
  return outputs_;
}

}  // namespace analognf::analog
