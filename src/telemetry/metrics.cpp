#include "analognf/telemetry/metrics.hpp"

#include <stdexcept>

namespace analognf::telemetry {

void HistogramSpec::Validate() const {
  if (!(first_bound > 0.0)) {
    throw std::invalid_argument("HistogramSpec: first_bound must be > 0");
  }
  if (!(growth > 1.0)) {
    throw std::invalid_argument("HistogramSpec: growth must be > 1");
  }
  if (buckets == 0) {
    throw std::invalid_argument("HistogramSpec: buckets must be >= 1");
  }
}

// -------------------------------------------------------------- Histogram

Histogram::Histogram(HistogramSpec spec)
    : spec_(spec),
      inv_log_growth_(1.0 / std::log(spec.growth)),
      lines_((spec.buckets + kCellsPerLine) / kCellsPerLine) {
  spec_.Validate();
}

std::vector<double> Histogram::UpperBounds() const {
  std::vector<double> bounds(spec_.buckets);
  double b = spec_.first_bound;
  for (std::size_t i = 0; i < spec_.buckets; ++i) {
    bounds[i] = b;
    b *= spec_.growth;
  }
  return bounds;
}

std::vector<std::uint64_t> Histogram::BucketCounts() const {
  std::vector<std::uint64_t> counts(spec_.buckets + 1);
  for (std::size_t i = 0; i < counts.size(); ++i) {
    counts[i] = lines_[i / kCellsPerLine].cells[i % kCellsPerLine].load(
        std::memory_order_relaxed);
  }
  return counts;
}

// --------------------------------------------------------------- registry

MetricsRegistry::MetricsRegistry(TelemetryConfig config) : config_(config) {}

void MetricsRegistry::CheckNameFree(const std::string& name, int kind) const {
  // kind: 0 counter, 1 gauge, 2 histogram. Caller holds mutex_.
  if ((kind != 0 && counters_.count(name) != 0) ||
      (kind != 1 && gauges_.count(name) != 0) ||
      (kind != 2 && histograms_.count(name) != 0)) {
    throw std::invalid_argument("MetricsRegistry: '" + name +
                                "' already registered as another kind");
  }
}

CounterHandle MetricsRegistry::GetCounter(const std::string& name) {
  if (!config_.enabled) return CounterHandle{};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    CheckNameFree(name, 0);
    it = counters_.emplace(name, std::make_unique<Counter>()).first;
  }
  return CounterHandle{it->second.get()};
}

GaugeHandle MetricsRegistry::GetGauge(const std::string& name) {
  if (!config_.enabled) return GaugeHandle{};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    CheckNameFree(name, 1);
    it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
  }
  return GaugeHandle{it->second.get()};
}

HistogramHandle MetricsRegistry::GetHistogram(const std::string& name,
                                              HistogramSpec spec) {
  if (!config_.enabled) return HistogramHandle{};
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    CheckNameFree(name, 2);
    it = histograms_.emplace(name, std::make_unique<Histogram>(spec))
             .first;
  }
  return HistogramHandle{it->second.get()};
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mutex_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.push_back({name, counter->Value()});
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.push_back({name, gauge->Value()});
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    HistogramSample s;
    s.name = name;
    s.upper_bounds = hist->UpperBounds();
    s.counts = hist->BucketCounts();
    s.count = hist->Count();
    s.sum = hist->Sum();
    snap.histograms.push_back(std::move(s));
  }
  return snap;
}

}  // namespace analognf::telemetry
