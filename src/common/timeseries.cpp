#include "analognf/common/timeseries.hpp"

#include <stdexcept>

namespace analognf {

void TimeSeries::Append(double time, double value) {
  if (!points_.empty() && time < points_.back().time) {
    throw std::invalid_argument("TimeSeries::Append: time went backwards");
  }
  points_.push_back({time, value});
}

std::vector<double> TimeSeries::ValuesFrom(double from) const {
  std::vector<double> out;
  for (const Point& p : points_) {
    if (p.time >= from) out.push_back(p.value);
  }
  return out;
}

TimeSeries TimeSeries::Downsample(std::size_t max_points) const {
  if (max_points < 2) {
    throw std::invalid_argument("Downsample requires max_points >= 2");
  }
  if (points_.size() <= max_points) return *this;
  TimeSeries out(name_);
  const double t0 = points_.front().time;
  const double t1 = points_.back().time;
  const double width = (t1 - t0) / static_cast<double>(max_points);
  if (width <= 0.0) {
    // Degenerate: all samples share one timestamp; average them.
    double sum = 0.0;
    for (const Point& p : points_) sum += p.value;
    out.Append(t0, sum / static_cast<double>(points_.size()));
    return out;
  }
  std::size_t bucket = 0;
  double sum = 0.0;
  std::size_t count = 0;
  for (const Point& p : points_) {
    auto b = static_cast<std::size_t>((p.time - t0) / width);
    if (b >= max_points) b = max_points - 1;
    if (b != bucket && count > 0) {
      out.Append(t0 + (static_cast<double>(bucket) + 0.5) * width,
                 sum / static_cast<double>(count));
      sum = 0.0;
      count = 0;
    }
    bucket = b;
    sum += p.value;
    ++count;
  }
  if (count > 0) {
    out.Append(t0 + (static_cast<double>(bucket) + 0.5) * width,
               sum / static_cast<double>(count));
  }
  return out;
}

}  // namespace analognf
