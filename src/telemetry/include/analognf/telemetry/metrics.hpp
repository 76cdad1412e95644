// Runtime metrics for the data plane: counters, gauges and log-spaced
// histograms behind a name-keyed registry.
//
// Every registry has one writer at a time: the thread that owns the
// component writing into it (a port's worker, the thread that builds
// the switch before the worker starts, or a thread that takes over
// after a fence such as PortRuntime::WaitIdle). Writes are relaxed
// load+store pairs on atomic cells, not read-modify-writes, so a
// second concurrent writer would lose updates. Readers are concurrent:
// Snapshot() may run from any thread while the writer runs, and sees
// each cell whole. Each metric sits on its own cache line, so the
// writers of different registries never share one.
//
// Instrumented code holds *handles* (CounterHandle, GaugeHandle,
// HistogramHandle), not metrics: a handle from a disabled registry is
// null and every operation on it is an inlined no-op, so the
// TelemetryConfig off-switch produces zero metric writes.
//
// Metric pointers handed out by the registry are stable for the
// registry's lifetime (the same contract as EnergyLedger::Meter).
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace analognf::telemetry {

// Fixed log-spaced histogram buckets: finite bucket i spans
// (bound[i-1], bound[i]] with bound[i] = first_bound * growth^i, plus an
// implicit overflow bucket. Everything <= first_bound lands in bucket 0.
struct HistogramSpec {
  double first_bound = 1.0;
  double growth = 2.0;
  std::size_t buckets = 24;  // finite buckets; overflow bucket is extra

  void Validate() const;  // throws std::invalid_argument
};

struct TelemetryConfig {
  // The master off-switch: a disabled registry hands out null handles
  // and never allocates a metric.
  bool enabled = true;
  // Flight-recorder ring capacity in batch records (rounded up to a
  // power of two); 0 disables the recorder.
  std::size_t flight_recorder_capacity = 256;
};

namespace internal {

// The single writer's increment: a relaxed load and store, which costs a
// plain add where fetch_add would cost a locked read-modify-write.
template <typename T>
void Bump(std::atomic<T>& cell, T n) {
  cell.store(cell.load(std::memory_order_relaxed) + n,
             std::memory_order_relaxed);
}

}  // namespace internal

// Monotonic event count.
class alignas(64) Counter {
 public:
  void Inc(std::uint64_t n = 1) { internal::Bump(value_, n); }
  std::uint64_t Value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

// Last-written value (queue depth, table size).
class alignas(64) Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log-spaced-bucket histogram.
class alignas(64) Histogram {
 public:
  explicit Histogram(HistogramSpec spec);

  void Observe(double x) {
    const std::size_t i = BucketOf(x);
    internal::Bump(lines_[i / kCellsPerLine].cells[i % kCellsPerLine],
                   std::uint64_t{1});
    internal::Bump(count_, std::uint64_t{1});
    internal::Bump(sum_, x);
  }

  const HistogramSpec& spec() const { return spec_; }
  // Upper bound of finite bucket i (first_bound * growth^i).
  std::vector<double> UpperBounds() const;
  // Per-bucket counts, size spec().buckets + 1 (last = overflow).
  std::vector<std::uint64_t> BucketCounts() const;
  std::uint64_t Count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double Sum() const { return sum_.load(std::memory_order_relaxed); }

  std::size_t BucketOf(double x) const {
    if (!(x > spec_.first_bound)) return 0;  // also catches NaN
    const double pos = std::log(x / spec_.first_bound) * inv_log_growth_;
    const auto i = static_cast<std::size_t>(std::ceil(pos));
    return i < spec_.buckets ? i : spec_.buckets;
  }

 private:
  static constexpr std::size_t kCellsPerLine = 8;
  // Bucket counts, a cache line at a time, so that no other metric's
  // writer shares a line with them.
  struct alignas(64) Line {
    std::atomic<std::uint64_t> cells[kCellsPerLine]{};
  };

  HistogramSpec spec_;
  double inv_log_growth_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::vector<Line> lines_;
};

// ---------------------------------------------------------------- handles
// Null-safe views instrumented code holds. A default-constructed (or
// disabled-registry) handle is inert; all operations inline to a single
// predictable branch.

class CounterHandle {
 public:
  CounterHandle() = default;
  explicit CounterHandle(Counter* c) : c_(c) {}
  void Inc(std::uint64_t n = 1) const {
    if (c_ != nullptr) c_->Inc(n);
  }
  bool bound() const { return c_ != nullptr; }

 private:
  Counter* c_ = nullptr;
};

class GaugeHandle {
 public:
  GaugeHandle() = default;
  explicit GaugeHandle(Gauge* g) : g_(g) {}
  void Set(double v) const {
    if (g_ != nullptr) g_->Set(v);
  }
  bool bound() const { return g_ != nullptr; }

 private:
  Gauge* g_ = nullptr;
};

class HistogramHandle {
 public:
  HistogramHandle() = default;
  explicit HistogramHandle(Histogram* h) : h_(h) {}
  void Observe(double x) const {
    if (h_ != nullptr) h_->Observe(x);
  }
  bool bound() const { return h_ != nullptr; }

 private:
  Histogram* h_ = nullptr;
};

// Counters a search engine (pCAM, TCAM, LPM) reports into. All optional:
// engines run un-instrumented until a table binds them to a registry.
struct SearchEngineCounters {
  CounterHandle searches;      // probes evaluated
  CounterHandle rows_scanned;  // stored rows (or LPM table reads) evaluated
  CounterHandle recompiles;    // snapshot compiles / dirty-row refreshes
  // Pruned-tier TCAM engines only: rows that survived the bitmap
  // intersection and were actually verified, and the fraction of stored
  // rows the bitmaps pruned away on the most recent search (or batch).
  CounterHandle candidates;
  GaugeHandle prune_ratio;
};

// --------------------------------------------------------------- snapshot
// Point-in-time aggregation of a registry, ordered by metric name.

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::vector<double> upper_bounds;     // finite bucket bounds, ascending
  std::vector<std::uint64_t> counts;    // size upper_bounds.size() + 1
  std::uint64_t count = 0;
  double sum = 0.0;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;
};

// ---------------------------------------------------------------- registry

class MetricsRegistry {
 public:
  explicit MetricsRegistry(TelemetryConfig config = {});

  bool enabled() const { return config_.enabled; }
  const TelemetryConfig& config() const { return config_; }

  // Find-or-create. Handles and the metrics behind them stay valid for
  // the registry's lifetime; a disabled registry returns null handles
  // and allocates nothing. Registering a name under two different
  // metric kinds throws std::invalid_argument. Re-getting a histogram
  // keeps the first registration's spec.
  CounterHandle GetCounter(const std::string& name);
  GaugeHandle GetGauge(const std::string& name);
  HistogramHandle GetHistogram(const std::string& name,
                               HistogramSpec spec = {});

  // Reads every metric. Safe from any thread while the registry's
  // writer runs: every cell is read with a relaxed atomic load.
  MetricsSnapshot Snapshot() const;

 private:
  void CheckNameFree(const std::string& name, int kind) const;

  TelemetryConfig config_;
  mutable std::mutex mutex_;  // guards the maps, not the cells
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Registers the canonical `<prefix>.searches` / `<prefix>.rows_scanned`
// / `<prefix>.recompiles` counter triple for a search engine, plus the
// `<prefix>.candidates` counter and `<prefix>.prune_ratio` gauge the
// pruned TCAM match tier reports into (zero for other engines).
inline SearchEngineCounters MakeSearchEngineCounters(
    MetricsRegistry& registry, const std::string& prefix) {
  SearchEngineCounters counters;
  counters.searches = registry.GetCounter(prefix + ".searches");
  counters.rows_scanned = registry.GetCounter(prefix + ".rows_scanned");
  counters.recompiles = registry.GetCounter(prefix + ".recompiles");
  counters.candidates = registry.GetCounter(prefix + ".candidates");
  counters.prune_ratio = registry.GetGauge(prefix + ".prune_ratio");
  return counters;
}

// Control-plane commit meters a table reports into on every Commit()
// (see common/table_delta.hpp). All optional, like SearchEngineCounters.
struct TableCommitCounters {
  CounterHandle commit_ns;         // cumulative wall ns spent committing
  CounterHandle delta_rows;        // rows patched by delta commits
  CounterHandle full_recompiles;   // commits that rebuilt from scratch
};

// Registers the canonical `table.commit_ns` / `table.delta_rows` /
// `table.full_recompiles` meters. Every table of one registry shares
// the same three counters (GetCounter deduplicates by name), so the
// flight recorder sees the data plane's total control-plane commit cost
// in one place regardless of which engine paid it.
inline TableCommitCounters MakeTableCommitCounters(
    MetricsRegistry& registry) {
  TableCommitCounters counters;
  counters.commit_ns = registry.GetCounter("table.commit_ns");
  counters.delta_rows = registry.GetCounter("table.delta_rows");
  counters.full_recompiles = registry.GetCounter("table.full_recompiles");
  return counters;
}

}  // namespace analognf::telemetry
