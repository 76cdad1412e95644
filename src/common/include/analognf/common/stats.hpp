// Streaming and batch statistics used by the simulator, the AQM control
// loop and the benchmark reports.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace analognf {

// Welford's online algorithm: numerically stable running mean/variance,
// plus min/max tracking. O(1) per sample, no storage.
class RunningStats {
 public:
  void Add(double x);
  void Reset();

  std::size_t count() const { return count_; }
  bool empty() const { return count_ == 0; }
  // Mean of the samples seen so far (0 when empty).
  double mean() const { return mean_; }
  // Unbiased sample variance (0 for fewer than two samples).
  double variance() const;
  double stddev() const;
  // Minimum/maximum seen (+/-inf when empty).
  double min() const { return min_; }
  double max() const { return max_; }
  double sum() const { return sum_; }

 private:
  std::size_t count_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  // +/-infinity when empty, as min()/max() promise; Add() overwrites on
  // the first sample.
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = -std::numeric_limits<double>::infinity();
  double sum_ = 0.0;
};

// Exponentially weighted moving average, the estimator RED-style AQMs and
// the cognitive controller use for queue statistics. `weight` in (0, 1]
// is the weight of the newest sample.
class Ewma {
 public:
  explicit Ewma(double weight);

  // Folds in a sample and returns the updated average. The first sample
  // initialises the average directly.
  double Update(double sample);
  double value() const { return value_; }
  bool initialized() const { return initialized_; }

 private:
  double weight_;
  double value_ = 0.0;
  bool initialized_ = false;
};

// Linearly interpolated percentile of a batch (q in [0, 1]): the value
// at position q * (n - 1) of the sorted samples, selected in O(n)
// without a sort. Leaves `samples` reordered. Requires a non-empty input.
double PercentileInPlace(std::vector<double>& samples, double q);

// Mean of a batch. Requires a non-empty input.
double Mean(const std::vector<double>& samples);

}  // namespace analognf
