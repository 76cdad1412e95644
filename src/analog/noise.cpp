#include "analognf/analog/noise.hpp"

#include <cmath>
#include <stdexcept>

namespace analognf::analog {

void ChannelParams::Validate() const {
  if (!(line_gain > 0.0) || line_gain > 1.0) {
    throw std::invalid_argument("ChannelParams: line_gain must be in (0,1]");
  }
  if (awgn_sigma_v < 0.0) {
    throw std::invalid_argument("ChannelParams: awgn_sigma_v < 0");
  }
  if (interference_peak_v < 0.0) {
    throw std::invalid_argument("ChannelParams: interference_peak_v < 0");
  }
}

AnalogChannel::AnalogChannel(ChannelParams params,
                             analognf::RandomStream rng)
    : params_(params), rng_(rng) {
  params_.Validate();
}

double AnalogChannel::Transmit(double voltage_v) {
  double out = voltage_v * params_.line_gain;
  if (params_.interference_peak_v > 0.0) {
    out += params_.interference_peak_v * std::sin(phase_rad_);
    phase_rad_ += params_.interference_step_rad;
    if (phase_rad_ > 2.0 * M_PI) phase_rad_ -= 2.0 * M_PI;
  }
  if (params_.awgn_sigma_v > 0.0) {
    out += rng_.NextNormal(0.0, params_.awgn_sigma_v);
  }
  return out;
}

}  // namespace analognf::analog
