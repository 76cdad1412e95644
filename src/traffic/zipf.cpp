#include "analognf/traffic/zipf.hpp"

#include <cmath>
#include <stdexcept>

namespace analognf::traffic {
namespace {

// log1p(x)/x with a series expansion near 0 (Hörmann & Derflinger's
// helper1): keeps hIntegralInverse smooth as s -> 1.
double Helper1(double x) {
  if (std::abs(x) > 1e-8) return std::log1p(x) / x;
  return 1.0 - x * 0.5 + x * x / 3.0;
}

// expm1(x)/x with a series expansion near 0 (helper2).
double Helper2(double x) {
  if (std::abs(x) > 1e-8) return std::expm1(x) / x;
  return 1.0 + x * 0.5 + x * x / 6.0;
}

}  // namespace

ZipfSampler::ZipfSampler(std::uint64_t n, double s) : n_(n), s_(s) {
  if (n == 0) throw std::invalid_argument("ZipfSampler: n == 0");
  if (!(s >= 0.0)) throw std::invalid_argument("ZipfSampler: s < 0");
  if (s_ > 0.0) {
    h_integral_x1_ = HIntegral(1.5) - 1.0;
    h_integral_n_ = HIntegral(static_cast<double>(n_) + 0.5);
    threshold_ = 2.0 - HIntegralInverse(HIntegral(2.5) - H(2.0));
  }
}

// Integral of h(x) = x^(-s): (x^(1-s) - 1) / (1 - s), continuous in s
// (log(x) at s == 1) via helper2.
double ZipfSampler::HIntegral(double x) const {
  const double log_x = std::log(x);
  return Helper2((1.0 - s_) * log_x) * log_x;
}

double ZipfSampler::H(double x) const { return std::exp(-s_ * std::log(x)); }

double ZipfSampler::HIntegralInverse(double x) const {
  double t = x * (1.0 - s_);
  if (t < -1.0) t = -1.0;  // numerical round-off guard (as in the paper)
  return std::exp(Helper1(t) * x);
}

std::uint64_t ZipfSampler::Sample(analognf::RandomStream& rng) const {
  if (s_ == 0.0) return rng.NextIndex(n_);
  for (;;) {
    const double u =
        h_integral_n_ + rng.NextUniform() * (h_integral_x1_ - h_integral_n_);
    const double x = HIntegralInverse(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    const double n_d = static_cast<double>(n_);
    if (k > n_d) k = n_d;
    if (k - x <= threshold_ || u >= HIntegral(k + 0.5) - H(k)) {
      return static_cast<std::uint64_t>(k) - 1;  // 0-based rank
    }
  }
}

}  // namespace analognf::traffic
