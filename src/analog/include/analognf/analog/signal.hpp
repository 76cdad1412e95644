// Analog signal basics: voltage ranges and linear feature-to-voltage maps.
//
// The architecture (Fig. 5) carries network features (sojourn times,
// buffer occupancies, derivatives) as voltages between the DAC front-end
// and the pCAM array. A VoltageRange names the span a signal lives in,
// and LinearMap is the affine feature<->voltage conversion the Fig. 7
// experiments use ("analog input ... mapped to hardware voltages (DACs)").
#pragma once

#include <algorithm>
#include <stdexcept>

namespace analognf::analog {

// A closed voltage interval [lo_v, hi_v], lo_v < hi_v. Every range is a
// hardware constant, so the constructor runs at compile time only and an
// empty or inverted range does not compile.
struct VoltageRange {
  double lo_v;
  double hi_v;

  consteval VoltageRange(double lo, double hi) : lo_v(lo), hi_v(hi) {
    if (!(hi > lo)) {
      throw std::invalid_argument("VoltageRange: require hi > lo");
    }
  }

  double span() const { return hi_v - lo_v; }
  bool Contains(double v) const { return v >= lo_v && v <= hi_v; }
  double Clamp(double v) const { return std::clamp(v, lo_v, hi_v); }
  // Position of v inside the range, in [0,1] after clamping.
  double Normalize(double v) const { return (Clamp(v) - lo_v) / span(); }
  // Inverse of Normalize for t in [0,1] (clamped).
  double Denormalize(double t) const {
    return lo_v + std::clamp(t, 0.0, 1.0) * span();
  }
};

// Affine map from a feature interval [feature_lo, feature_hi] onto a
// voltage range. Out-of-interval features clamp (a real DAC saturates).
class LinearMap {
 public:
  LinearMap(double feature_lo, double feature_hi, VoltageRange range)
      : feature_lo_(feature_lo), feature_hi_(feature_hi), range_(range) {
    if (!(feature_hi > feature_lo)) {
      throw std::invalid_argument(
          "LinearMap: require feature_hi > feature_lo");
    }
  }

  double ToVoltage(double feature) const {
    const double t = (std::clamp(feature, feature_lo_, feature_hi_) -
                      feature_lo_) /
                     (feature_hi_ - feature_lo_);
    return range_.Denormalize(t);
  }

  const VoltageRange& range() const { return range_; }
  double feature_lo() const { return feature_lo_; }
  double feature_hi() const { return feature_hi_; }

 private:
  double feature_lo_;
  double feature_hi_;
  VoltageRange range_;
};

}  // namespace analognf::analog
