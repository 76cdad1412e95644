#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <new>

#include "analognf/common/rng.hpp"

// ------------------------------------------------------ allocation probe
//
// Replaceable global operator new counting allocations per thread, so
// the ingress workload can report allocations per packet on the producer
// and on the port worker separately. Must live at global scope.

namespace perfbench_alloc {
thread_local std::uint64_t count = 0;
}  // namespace perfbench_alloc

#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++perfbench_alloc::count;
  void* p = std::malloc(size ? size : 1);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#pragma GCC diagnostic pop

namespace perfbench {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t ThreadAllocs() { return perfbench_alloc::count; }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::uint64_t DeriveSeed(std::uint64_t base, std::uint64_t seed) {
  if (seed == kDefaultSeed) return base;
  return analognf::SplitMix64(base ^ (seed * 0x9e3779b97f4a7c15ULL)).Next();
}

void Result::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct = false;
  notes.push_back("CHECK FAILED: " + what);
}

// ------------------------------------------------------------ calibration

namespace {

// Keeps the kernel's result observable so it is not optimised away.
volatile std::uint64_t calibration_sink = 0;

double CalibrationKernelNs() {
  constexpr std::size_t kIters = 1u << 19;
  std::uint64_t x[8] = {1, 2, 3, 4, 5, 6, 7, 8};
  const std::uint64_t t0 = NowNs();
  for (std::size_t i = 0; i < kIters; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      x[j] = x[j] * 6364136223846793005ULL + (x[(j + 1) & 7] >> 17);
    }
  }
  const std::uint64_t t1 = NowNs();
  calibration_sink = x[0] ^ x[7];
  return static_cast<double>(t1 - t0) / static_cast<double>(kIters);
}

}  // namespace

void Chunks::Add(double rate, std::vector<double> latencies) {
  rates_.push_back(rate);
  if (latencies.empty()) return;
  p50_.push_back(Quantile(latencies, 0.50));
  p90_.push_back(Quantile(std::move(latencies), 0.90));
}

void Calibration::Sample() {
  std::vector<double> reps;
  for (int r = 0; r < 3; ++r) reps.push_back(CalibrationKernelNs());
  samples_.push_back(Median(reps));
}

double Calibration::median_ns() const { return Median(samples_); }

double Calibration::spread() const {
  if (samples_.empty()) return 0.0;
  const auto [lo, hi] = std::minmax_element(samples_.begin(), samples_.end());
  return (*hi - *lo) / median_ns();
}

// ------------------------------------------------------------------ tracer

namespace {
constexpr std::size_t kKeptSpans = 50000;
}  // namespace

Tracer::Tracer(std::uint32_t thread) : thread_(thread) {
  open_.reserve(16);
  kept_.reserve(kKeptSpans);
}

std::uint32_t Tracer::Intern(const std::string& name) {
  for (std::size_t i = 0; i < totals_.size(); ++i) {
    if (totals_[i].name == name) return static_cast<std::uint32_t>(i);
  }
  totals_.push_back(Totals{name});
  return static_cast<std::uint32_t>(totals_.size() - 1);
}

void Tracer::Begin(std::uint32_t name, std::uint64_t start_ns) {
  open_.push_back(Open{NewId(), name, start_ns, 0.0});
}

void Tracer::End(std::uint64_t end_ns) {
  const Open o = open_.back();
  open_.pop_back();
  Close(o.id, o.name, o.start_ns, end_ns, o.child_ns);
}

void Tracer::Leaf(std::uint32_t name, std::uint64_t start_ns,
                  std::uint64_t end_ns) {
  Close(NewId(), name, start_ns, end_ns, 0.0);
}

void Tracer::Close(std::uint64_t id, std::uint32_t name,
                   std::uint64_t start_ns, std::uint64_t end_ns,
                   double child_ns) {
  const double dur = static_cast<double>(end_ns - start_ns);
  Totals& t = totals_[name];
  t.total_ns += dur;
  t.self_ns += dur - child_ns;
  ++t.count;
  std::uint64_t parent = 0;
  if (!open_.empty()) {
    open_.back().child_ns += dur;
    parent = open_.back().id;
  }
  if (kept_.size() < kKeptSpans) {
    kept_.push_back(Span{id, parent, name, start_ns, end_ns});
  }
}

const Tracer::Totals* Tracer::Find(const std::string& name) const {
  for (const Totals& t : totals_) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

double Tracer::SelfNs(const std::string& name) const {
  const Totals* t = Find(name);
  return t != nullptr ? t->self_ns : 0.0;
}

double Tracer::TotalNs(const std::string& name) const {
  const Totals* t = Find(name);
  return t != nullptr ? t->total_ns : 0.0;
}

void Tracer::WriteJsonl(std::ostream& out) const {
  for (const Span& s : kept_) {
    out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"thread\":" << thread_ << ",\"name\":\"" << totals_[s.name].name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << "}\n";
  }
}

void WriteTraces(const std::string& path,
                 const std::vector<const Tracer*>& tracers) {
  if (path.empty()) return;
  std::ofstream out(path);
  for (const Tracer* t : tracers) t->WriteJsonl(out);
}

}  // namespace perfbench
