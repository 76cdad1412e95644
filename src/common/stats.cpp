#include "analognf/common/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace analognf {

void RunningStats::Add(double x) {
  if (count_ == 0) {
    min_ = x;
    max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++count_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(count_);
  m2_ += delta * (x - mean_);
}

void RunningStats::Reset() { *this = RunningStats{}; }

double RunningStats::variance() const {
  if (count_ < 2) return 0.0;
  return m2_ / static_cast<double>(count_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

Ewma::Ewma(double weight) : weight_(weight) {
  if (!(weight > 0.0) || weight > 1.0) {
    throw std::invalid_argument("Ewma weight must be in (0, 1]");
  }
}

double Ewma::Update(double sample) {
  if (!initialized_) {
    value_ = sample;
    initialized_ = true;
  } else {
    value_ += weight_ * (sample - value_);
  }
  return value_;
}

double PercentileInPlace(std::vector<double>& samples, double q) {
  if (samples.empty()) {
    throw std::invalid_argument("Percentile of an empty sample set");
  }
  q = std::clamp(q, 0.0, 1.0);
  const double pos = q * static_cast<double>(samples.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const auto lo_it = samples.begin() + static_cast<std::ptrdiff_t>(lo);
  std::nth_element(samples.begin(), lo_it, samples.end());
  // Everything after the lo-th order statistic is >= it, so the smallest
  // of those is the next one.
  const double hi_value =
      lo + 1 < samples.size() ? *std::min_element(lo_it + 1, samples.end())
                              : *lo_it;
  const double frac = pos - static_cast<double>(lo);
  return *lo_it + frac * (hi_value - *lo_it);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) {
    throw std::invalid_argument("Mean of an empty sample set");
  }
  return std::accumulate(samples.begin(), samples.end(), 0.0) /
         static_cast<double>(samples.size());
}

}  // namespace analognf
