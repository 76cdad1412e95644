// Analog signal-integrity model.
//
// RQ2 of the paper: "the match output can lose its precision depending
// upon the line losses, signal strength and interference from the
// neighboring components." This module models those three effects on a
// voltage travelling between architecture blocks, so that the precision
// requirements of different network functions (IP lookup vs. AQM) can be
// analysed quantitatively (the PDP transfer-error table of
// bench_fig7_aqm_output and the `noise` collection of bench_aqm_shootout).
#pragma once

#include <cstddef>

#include "analognf/common/rng.hpp"

namespace analognf::analog {

// Channel parameters. All default to the ideal channel.
struct ChannelParams {
  // Multiplicative line loss: the fraction of amplitude *retained*
  // (1.0 = lossless, 0.98 = 2% attenuation).
  double line_gain = 1.0;
  // Additive white Gaussian noise, std-dev in volts (thermal + sense-amp
  // input-referred noise).
  double awgn_sigma_v = 0.0;
  // Peak amplitude of deterministic crosstalk from neighbouring lines,
  // in volts. Modelled as a phase-advancing sinusoid so repeated samples
  // decorrelate the way periodic aggressor activity does.
  double interference_peak_v = 0.0;
  // Crosstalk phase advance per sample, radians.
  double interference_step_rad = 2.399963;  // golden-angle: no short cycles

  void Validate() const;  // throws std::invalid_argument

  // True when Transmit() is a pure per-sample gain (no RNG draws, no
  // phase state): the batched pCAM search engine uses this to skip
  // channel bookkeeping entirely on the hot path.
  bool IsStateless() const {
    return awgn_sigma_v == 0.0 && interference_peak_v == 0.0;
  }

  // Convenience presets used across tests and benches.
  static ChannelParams Ideal() { return {}; }
  static ChannelParams Noisy(double sigma_v) {
    ChannelParams p;
    p.awgn_sigma_v = sigma_v;
    return p;
  }
};

// A stateful noisy channel: Transmit() applies line loss, crosstalk and
// AWGN to one voltage sample.
class AnalogChannel {
 public:
  AnalogChannel(ChannelParams params, analognf::RandomStream rng);

  double Transmit(double voltage_v);

  const ChannelParams& params() const { return params_; }

 private:
  ChannelParams params_;
  analognf::RandomStream rng_;
  double phase_rad_ = 0.0;
};

}  // namespace analognf::analog
