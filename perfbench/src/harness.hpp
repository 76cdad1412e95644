// Shared pieces of the analognf benchmark: clocks, quantiles, seeds, the
// per-run result record, the host calibration kernel and the in-memory
// span tracer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace perfbench {

std::uint64_t NowNs();

// Allocations made through global operator new on the calling thread
// since it started (the benchmark binary replaces operator new).
std::uint64_t ThreadAllocs();

// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty
// sample. Takes a copy so callers keep their sample order.
double Quantile(std::vector<double> v, double q);
inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

// The seed a run uses when --seed is not given. Every input a workload
// derives from `base` is the library's own default at this seed.
inline constexpr std::uint64_t kDefaultSeed = 1;
std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t seed);

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  // JSON-lines span dump (traced runs only)
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// What one workload run reports. End-to-end metrics are measured with
// tracing off; per-layer metrics come from the traced run.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;  // packets (cells on aqm-grid) offered
  std::uint64_t failed = 0;     // ring drops, parse errors, no-route, misses
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> notes;  // printed before the JSON line

  // Records a failed output check (the run then reports correct=false).
  void Check(bool ok, const std::string& what);
  void E2e(const std::string& name, const std::string& unit, double value) {
    end_to_end.push_back({name, unit, value});
  }
  void Layer(const std::string& name, const std::string& unit, double value) {
    per_layer.push_back({name, unit, value});
  }
  void Note(const std::string& line) { notes.push_back(line); }
};

// A run's time metrics, summarised per chunk (one repetition of the
// workload). Throughput is the 5th percentile of the per-chunk rates and
// each latency quantile the 95th percentile of the per-chunk quantiles:
// what the host sustains in 19 chunks out of 20. A shared host here alternates between a contended
// and an uncontended state, for a second or for minutes at a time, with
// the contended state ~1.5x slower; a plain whole-window mean or median
// then depends on which spells a run happened to catch.
class Chunks {
 public:
  void Add(double rate, std::vector<double> latencies);
  double Rate() const { return Quantile(rates_, 0.05); }
  double LatencyP50() const { return Quantile(p50_, 0.95); }
  double LatencyP90() const { return Quantile(p90_, 0.95); }

 private:
  std::vector<double> rates_, p50_, p90_;
};

// A fixed single-thread kernel timed between workload windows: eight
// independent multiply chains, throughput-bound like the data plane, so
// it slows when a co-tenant contends for the core's execution ports. It
// never runs code under test, so a slow window next to a slow
// calibration reads as a host change rather than a regression.
class Calibration {
 public:
  void Sample();
  double median_ns() const;
  // (max - min) / median over this run's samples.
  double spread() const;

 private:
  std::vector<double> samples_;
};

// In-memory span recorder for one thread. Spans carry a name, start,
// end and parent; a layer's self time is its duration minus the time
// its child spans cover. Totals are kept for every span; only the first
// 50000 spans are retained for the JSON-lines dump.
class Tracer {
 public:
  explicit Tracer(std::uint32_t thread);

  // Registers a span name (setup time, not on the hot path).
  std::uint32_t Intern(const std::string& name);
  void Begin(std::uint32_t name, std::uint64_t start_ns);
  // Closes the innermost open span.
  void End(std::uint64_t end_ns);
  // A closed child of the innermost open span, with explicit times (used
  // for durations the program measured itself, e.g. per-stage ns).
  void Leaf(std::uint32_t name, std::uint64_t start_ns, std::uint64_t end_ns);

  double SelfNs(const std::string& name) const;
  double TotalNs(const std::string& name) const;
  std::uint64_t spans() const { return next_id_; }
  void WriteJsonl(std::ostream& out) const;

 private:
  struct Span {
    std::uint64_t id, parent;
    std::uint32_t name;
    std::uint64_t start_ns, end_ns;
  };
  struct Open {
    std::uint64_t id;
    std::uint32_t name;
    std::uint64_t start_ns;
    double child_ns;
  };
  struct Totals {
    std::string name;
    double total_ns = 0.0;
    double self_ns = 0.0;
    std::uint64_t count = 0;
  };
  std::uint64_t NewId() { return (std::uint64_t{thread_} << 40) | ++next_id_; }
  void Close(std::uint64_t id, std::uint32_t name, std::uint64_t start_ns,
             std::uint64_t end_ns, double child_ns);
  const Totals* Find(const std::string& name) const;

  std::uint32_t thread_;
  std::uint64_t next_id_ = 0;
  std::vector<Totals> totals_;
  std::vector<Open> open_;
  std::vector<Span> kept_;
};

// Writes every tracer's retained spans to `path` (JSON lines); a no-op
// for an empty path.
void WriteTraces(const std::string& path,
                 const std::vector<const Tracer*>& tracers);

}  // namespace perfbench
