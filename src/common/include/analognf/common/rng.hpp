// Deterministic random number generation.
//
// Every stochastic component in the library (traffic generators, analog
// noise sources, device-to-device variation) draws from an explicitly
// seeded generator so that every experiment in EXPERIMENTS.md is exactly
// reproducible. We implement xoshiro256** (Blackman & Vigna) seeded via
// SplitMix64 rather than relying on std::mt19937 so that streams are
// cheap to fork per component and stable across standard libraries.
#pragma once

#include <array>
#include <cstdint>

namespace analognf {

// SplitMix64: used to expand a single 64-bit seed into generator state.
// Also a fine stand-alone generator for hashing-style uses.
class SplitMix64 {
 public:
  explicit constexpr SplitMix64(std::uint64_t seed) : state_(seed) {}

  constexpr std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

// xoshiro256**: fast, high-quality 64-bit PRNG with a 2^256-1 period.
// Satisfies std::uniform_random_bit_generator.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  // Seeds the four state words from SplitMix64(seed).
  explicit Xoshiro256(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  result_type operator()() { return Next(); }
  result_type Next();

 private:
  std::array<std::uint64_t, 4> s_;
};

// Distribution helpers. Implemented directly (not via <random>
// distributions) so results are bit-identical across platforms.
class RandomStream {
 public:
  explicit RandomStream(std::uint64_t seed) : gen_(seed) {}

  // Uniform in [0, 1).
  double NextUniform();
  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t NextIndex(std::uint64_t n);
  // Exponential with the given rate (events per unit time). Requires
  // rate > 0. Used for Poisson inter-arrival times.
  double NextExponential(double rate);
  // Standard normal via Box-Muller (cached second variate).
  double NextNormal();
  // Normal with the given mean and standard deviation (sigma >= 0).
  double NextNormal(double mean, double sigma);
  // True with probability p (clamped to [0,1]).
  bool NextBernoulli(double p);

 private:
  Xoshiro256 gen_;
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace analognf
