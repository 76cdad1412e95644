#include "analognf/analog/converter.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf::analog {
namespace {

void CheckBits(unsigned bits) {
  if (bits < 1 || bits > 24) {
    throw std::invalid_argument("converter: bits must be in [1, 24]");
  }
}

void CheckInl(double inl_sigma_lsb) {
  if (inl_sigma_lsb < 0.0) {
    throw std::invalid_argument("converter: inl_sigma_lsb < 0");
  }
}

}  // namespace

Dac::Dac(LinearMap map, unsigned bits, double inl_sigma_lsb,
         std::uint64_t noise_seed)
    : map_(map),
      bits_(bits),
      inl_sigma_lsb_(inl_sigma_lsb),
      rng_(noise_seed) {
  CheckBits(bits);
  CheckInl(inl_sigma_lsb);
  lsb_ = map_.range().span() / static_cast<double>((1u << bits_) - 1u);
}

}  // namespace analognf::analog
