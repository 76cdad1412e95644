#include "analognf/device/quantizer.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf::device {

StateQuantizer::StateQuantizer(double lo, double hi, std::size_t levels)
    : lo_(lo), hi_(hi), levels_(levels) {
  if (!(hi > lo)) {
    throw std::invalid_argument("StateQuantizer: require hi > lo");
  }
  if (levels < 2) {
    throw std::invalid_argument("StateQuantizer: require levels >= 2");
  }
}

std::size_t StateQuantizer::IndexOf(double value) const {
  const double clamped = std::clamp(value, lo_, hi_);
  const double t = (clamped - lo_) / (hi_ - lo_);
  const double idx = std::round(t * static_cast<double>(levels_ - 1));
  return static_cast<std::size_t>(idx);
}

double StateQuantizer::ValueOf(std::size_t index) const {
  if (index >= levels_) {
    throw std::out_of_range("StateQuantizer::ValueOf: index >= levels");
  }
  const double t =
      static_cast<double>(index) / static_cast<double>(levels_ - 1);
  return lo_ + t * (hi_ - lo_);
}

}  // namespace analognf::device
