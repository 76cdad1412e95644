// Streaming quantile estimation (P-square algorithm, Jain & Chlamtac
// 1985): O(1) memory p-quantile tracking for long-running simulations
// where storing every delay sample is wasteful.
#pragma once

#include <array>
#include <cstdint>

namespace analognf {

// Tracks a single quantile q in (0, 1) over a stream of samples.
class P2Quantile {
 public:
  explicit P2Quantile(double q);

  void Add(double x);

  // Current estimate. Exact while fewer than 5 samples have been seen
  // (falls back to the sorted buffer), P-square interpolation after.
  double Value() const;
  std::uint64_t count() const { return count_; }
  double quantile() const { return q_; }

 private:
  double Parabolic(int i, double d) const;
  double Linear(int i, double d) const;

  double q_;
  std::uint64_t count_ = 0;
  // P-square state: 5 markers (heights, positions, desired positions).
  std::array<double, 5> heights_{};
  std::array<double, 5> positions_{};
  std::array<double, 5> desired_{};
  std::array<double, 5> desired_increment_{};
};

}  // namespace analognf
