// Zipf(s) rank sampling over populations of millions of flows.
//
// Internet flow popularity is heavy-tailed: a handful of elephant flows
// carry most packets while millions of mice appear once. The workload
// layer needs to draw ranks from Zipf(s) over n in the millions without
// materialising any per-rank state, so this uses rejection-inversion
// sampling (Hörmann & Derflinger 1996, the algorithm behind Apache
// Commons' RejectionInversionZipfSampler): O(1) setup, O(1) expected
// draws per sample, exact Zipf probabilities for any exponent s > 0.
// s == 0 degenerates to the uniform distribution.
#pragma once

#include <cstdint>

#include "analognf/common/rng.hpp"

namespace analognf::traffic {

class ZipfSampler {
 public:
  // P(rank = k) proportional to 1 / (k+1)^s for k in [0, n). Throws
  // std::invalid_argument for n == 0 or s < 0.
  ZipfSampler(std::uint64_t n, double s);

  // Draws a 0-based rank; rank 0 is the most popular.
  std::uint64_t Sample(analognf::RandomStream& rng) const;

  std::uint64_t n() const { return n_; }
  double s() const { return s_; }

 private:
  double HIntegral(double x) const;
  double HIntegralInverse(double x) const;
  double H(double x) const;

  std::uint64_t n_;
  double s_;
  double h_integral_x1_ = 0.0;
  double h_integral_n_ = 0.0;
  double threshold_ = 0.0;  // rejection acceptance cut (see Sample)
};

}  // namespace analognf::traffic
