// Quantisation of analog policy values onto programmable device states.
//
// pCAM parameters (thresholds M1..M4, output rails pmax/pmin) are stored
// as memristor conductances. A real chip offers a finite ladder of
// reliably distinguishable states; this quantiser maps a requested value
// onto the nearest ladder rung and reports the programming error, which
// is the device-side contribution to the precision loss RQ2 discusses.
#pragma once

#include <cstddef>
#include <vector>

namespace analognf::device {

// Uniform quantiser over a closed interval [lo, hi] with `levels` rungs
// (levels >= 2). Level 0 maps to lo, level (levels-1) to hi.
class StateQuantizer {
 public:
  StateQuantizer(double lo, double hi, std::size_t levels);

  std::size_t levels() const { return levels_; }
  double lo() const { return lo_; }
  double hi() const { return hi_; }

  // Nearest rung index for `value` (values outside [lo, hi] clamp).
  std::size_t IndexOf(double value) const;
  // Value of rung `index` (index < levels).
  double ValueOf(std::size_t index) const;
  // Nearest representable value.
  double Quantize(double value) const { return ValueOf(IndexOf(value)); }

 private:
  double lo_;
  double hi_;
  std::size_t levels_;
};

}  // namespace analognf::device
