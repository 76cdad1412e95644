// Runtime metrics for the data plane: counters, gauges and log-spaced
// histograms behind a name-keyed registry.
//
// The batched pCAM/TCAM hot paths must stay contention-free, so every
// counter and histogram is *thread-sharded*: one cache-line-padded cell
// per thread slot (ThreadSlot::Current() — 0 for any unregistered
// thread, 1 + i for registered thread i, common/thread_slot.hpp),
// aggregated only when a snapshot is taken. Writers touch their own
// cache line with relaxed atomics; there is no cross-thread write
// sharing on the hot path. Counts are exact while each slot has at most
// one concurrent writer (every concurrent writer but one registered,
// and the shard count covering the registered slots); beyond that they
// degrade to statistical per-CPU-style counters rather than serializing
// writers.
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

#include "analognf/common/thread_slot.hpp"

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
  // Counter/histogram shard cells (rounded up to a power of two);
  // 0 = ThreadSlot::UpperBound() at registry construction (slot 0 + the
  // most threads registered via ThreadSlot::Register that were alive at
  // once).
  std::size_t shards = 0;
  // Flight-recorder ring capacity in batch records (rounded up to a
  // power of two); 0 disables the recorder.
  std::size_t flight_recorder_capacity = 256;

  void Validate() const;  // throws std::invalid_argument
};

namespace internal {

// One shard's slot, padded to its own cache line.
struct alignas(64) CounterCell {
  std::atomic<std::uint64_t> value{0};
};

// Portable relaxed add for atomic<double> (fetch_add on floating point
// is C++20 but not yet universal); single-writer-per-cell in practice.
inline void AtomicAdd(std::atomic<double>& a, double x) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + x, std::memory_order_relaxed)) {
  }
}

}  // namespace internal

// Monotonic event count, sharded across thread slots.
class Counter {
 public:
  explicit Counter(std::size_t shards);

  void Inc(std::uint64_t n = 1) {
    // Relaxed load+store, not fetch_add: each thread slot owns its
    // cell (given enough shards), so there is no concurrent writer to
    // lose an update to, and the per-packet cost is a plain add instead
    // of a locked RMW. If more threads write than there are cells (more
    // registered threads than the shard count, or several unregistered
    // threads sharing slot 0), counts become statistical — never UB,
    // never torn, possibly slightly under.
    std::atomic<std::uint64_t>& cell =
        cells_[ThreadSlot::Current() & mask_].value;
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
  }
  std::uint64_t Value() const;

 private:
  std::vector<internal::CounterCell> cells_;
  std::size_t mask_;
};

// Last-written value (queue depth, table size). Single atomic cell:
// gauges are set at sampling points, not on the per-packet hot path.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double v) { internal::AtomicAdd(value_, v); }
  double Value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

// Log-spaced-bucket histogram, sharded across thread slots.
class Histogram {
 public:
  Histogram(HistogramSpec spec, std::size_t shards);

  void Observe(double x) {
    Shard& s = shards_[ThreadSlot::Current() & mask_];
    s.counts[BucketOf(x)].fetch_add(1, std::memory_order_relaxed);
    s.count.fetch_add(1, std::memory_order_relaxed);
    internal::AtomicAdd(s.sum, x);
  }

  const HistogramSpec& spec() const { return spec_; }
  // Upper bound of finite bucket i (first_bound * growth^i).
  std::vector<double> UpperBounds() const;
  // Aggregated per-bucket counts, size spec().buckets + 1 (last =
  // overflow).
  std::vector<std::uint64_t> BucketCounts() const;
  std::uint64_t Count() const;
  double Sum() const;

  std::size_t BucketOf(double x) const {
    if (!(x > spec_.first_bound)) return 0;  // also catches NaN
    const double pos = std::log(x / spec_.first_bound) * inv_log_growth_;
    const auto i = static_cast<std::size_t>(std::ceil(pos));
    return i < spec_.buckets ? i : spec_.buckets;
  }

 private:
  struct alignas(64) Shard {
    // Sized at construction to buckets + 1; never resized (vector<atomic>
    // is neither copyable nor movable element-wise).
    std::vector<std::atomic<std::uint64_t>> counts;
    std::atomic<std::uint64_t> count{0};
    std::atomic<double> sum{0.0};
  };

  HistogramSpec spec_;
  double inv_log_growth_;
  std::vector<Shard> shards_;
  std::size_t mask_;
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
  void Add(double v) const {
    if (g_ != nullptr) g_->Add(v);
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
  // Resolved shard-cell count (power of two).
  std::size_t shards() const { return shards_; }

  // Find-or-create. Handles and the metrics behind them stay valid for
  // the registry's lifetime; a disabled registry returns null handles
  // and allocates nothing. Registering a name under two different
  // metric kinds throws std::invalid_argument. Re-getting a histogram
  // keeps the first registration's spec.
  CounterHandle GetCounter(const std::string& name);
  GaugeHandle GetGauge(const std::string& name);
  HistogramHandle GetHistogram(const std::string& name,
                               HistogramSpec spec = {});

  // Aggregates every metric (sums shard cells). Safe to call while
  // writers are active: counts are relaxed-atomic reads.
  MetricsSnapshot Snapshot() const;

 private:
  void CheckNameFree(const std::string& name, int kind) const;

  TelemetryConfig config_;
  std::size_t shards_ = 1;
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
