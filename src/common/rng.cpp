#include "analognf/common/rng.hpp"

#include <cassert>
#include <cmath>

namespace analognf {
namespace {

constexpr std::uint64_t Rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Xoshiro256::Xoshiro256(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& word : s_) word = sm.Next();
}

std::uint64_t Xoshiro256::Next() {
  const std::uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double RandomStream::NextUniform() {
  // 53 random mantissa bits -> uniform double in [0, 1).
  return static_cast<double>(gen_() >> 11) * 0x1.0p-53;
}

std::uint64_t RandomStream::NextIndex(std::uint64_t n) {
  assert(n > 0);
  // Lemire's multiply-shift rejection method (unbiased).
  std::uint64_t x = gen_();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto low = static_cast<std::uint64_t>(m);
  if (low < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (low < threshold) {
      x = gen_();
      m = static_cast<__uint128_t>(x) * n;
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

double RandomStream::NextExponential(double rate) {
  assert(rate > 0.0);
  // -log(1-U) avoids log(0) since NextUniform() < 1.
  return -std::log1p(-NextUniform()) / rate;
}

double RandomStream::NextNormal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  // Box-Muller on (0,1] uniforms.
  double u1 = 1.0 - NextUniform();
  double u2 = NextUniform();
  double radius = std::sqrt(-2.0 * std::log(u1));
  double theta = 2.0 * M_PI * u2;
  cached_normal_ = radius * std::sin(theta);
  has_cached_normal_ = true;
  return radius * std::cos(theta);
}

double RandomStream::NextNormal(double mean, double sigma) {
  assert(sigma >= 0.0);
  return mean + sigma * NextNormal();
}

bool RandomStream::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextUniform() < p;
}

}  // namespace analognf
