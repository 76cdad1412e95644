// Digital <-> analog converters at the boundary between the digital
// pipeline and the pCAM array (Fig. 5 / Fig. 7: "analog input ... mapped
// to hardware voltages (DACs)").
#pragma once

#include <cmath>
#include <cstdint>

#include "analognf/analog/signal.hpp"
#include "analognf/common/rng.hpp"

namespace analognf::analog {

// Behavioural DAC: converts a feature value to a voltage through a
// LinearMap, quantised to `bits` of resolution, with optional
// integral-nonlinearity (INL) noise in LSBs.
class Dac {
 public:
  // bits in [1, 24]; inl_sigma_lsb >= 0 adds Gaussian error scaled by
  // one LSB to each conversion.
  Dac(LinearMap map, unsigned bits, double inl_sigma_lsb = 0.0,
      std::uint64_t noise_seed = 0x0dac5eed);

  // Feature -> quantised output voltage. Inline and cached: the AQM data
  // path converts eight features per decision, and within a batch most of
  // them (the held derivative-chain outputs) repeat the previous value.
  // When INL noise is off the conversion is a pure function, so a
  // single-entry cache returns the exact same double.
  double Convert(double feature) {
    if (inl_sigma_lsb_ == 0.0) {
      if (has_last_ && feature == last_feature_) return last_out_;
      const double out = map_.range().Clamp(Quantize(feature));
      has_last_ = true;
      last_feature_ = feature;
      last_out_ = out;
      return out;
    }
    double out = Quantize(feature);
    out += rng_.NextNormal(0.0, inl_sigma_lsb_ * lsb_);
    return map_.range().Clamp(out);
  }

  double LsbVolts() const { return lsb_; }
  unsigned bits() const { return bits_; }
  const LinearMap& map() const { return map_; }

 private:
  // Noise-free quantisation shared by both Convert paths (clamp happens
  // in the caller, after optional INL noise, exactly as before). `lsb_`
  // is the same span/(2^bits - 1) division LsbVolts() used to do per
  // call, computed once at construction — identical double, fewer
  // divides.
  double Quantize(double feature) const {
    const double ideal_v = map_.ToVoltage(feature);
    const double code = std::round((ideal_v - map_.range().lo_v) / lsb_);
    return map_.range().lo_v + code * lsb_;
  }

  LinearMap map_;
  unsigned bits_;
  double inl_sigma_lsb_;
  double lsb_ = 0.0;
  bool has_last_ = false;
  double last_feature_ = 0.0;
  double last_out_ = 0.0;
  analognf::RandomStream rng_;
};

}  // namespace analognf::analog
