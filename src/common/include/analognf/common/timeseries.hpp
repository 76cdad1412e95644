// Time-series container for simulation traces (Fig. 8 delay-vs-time plots
// and the bench reports that regenerate them).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace analognf {

// An append-only (time, value) trace. Times are expected to be
// non-decreasing; Append enforces this.
class TimeSeries {
 public:
  struct Point {
    double time;
    double value;
  };

  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}

  // Appends a sample. Throws std::invalid_argument if `time` precedes the
  // last appended time.
  void Append(double time, double value);

  // Pre-allocates storage for `capacity` samples. Simulations that know
  // their sample count up front (duration / sample interval) call this to
  // keep the Append hot path free of reallocation.
  void Reserve(std::size_t capacity) { points_.reserve(capacity); }

  const std::string& name() const { return name_; }
  bool empty() const { return points_.empty(); }
  std::size_t size() const { return points_.size(); }
  const std::vector<Point>& points() const { return points_; }
  const Point& operator[](std::size_t i) const { return points_[i]; }

  // Values with time >= from (inclusive). Used to drop warm-up transients
  // before computing delay-bound statistics.
  std::vector<double> ValuesFrom(double from) const;

  // Downsamples to at most `max_points` by bucketing on time and
  // averaging each bucket. Used by the bench reports to print plottable
  // series of bounded length. Returns *this unchanged if already small
  // enough. Requires max_points >= 2.
  TimeSeries Downsample(std::size_t max_points) const;

 private:
  std::string name_;
  std::vector<Point> points_;
};

}  // namespace analognf
