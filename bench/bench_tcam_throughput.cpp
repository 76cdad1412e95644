// Digital TCAM match throughput: the rowwise TernaryWord scan (what the
// table did before the compiled engine) against the bitmask engine's
// match tiers, across table sizes and batch sizes.
//
// Variant matrix written to BENCH_tcam.json (consumed by CI and
// scripts/check_bench.py):
//   * scalar_ref     — priority-resolved rowwise TernaryWord scan
//   * engine_linear  — compiled engine pinned to the linear tier
//   * engine_pruned  — compiled engine with the chunk-bitmap pruner
// Each engine row records the tier the compiler actually chose, the
// analytic expected prune ratio, and the measured prune ratio (from the
// tcam.candidates counter). The `isa` metadata field records whether the
// SIMD kernels ran AVX2 or the scalar fallback — rerunning the binary
// with ANALOGNF_FORCE_SCALAR=1 produces the scalar column of the same
// matrix (CI's scalar-fallback job does exactly that).
#include "bench_util.hpp"

#include <chrono>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analognf/common/rng.hpp"
#include "analognf/common/simd.hpp"
#include "analognf/tcam/tcam.hpp"
#include "analognf/telemetry/metrics.hpp"

namespace {

using namespace analognf;

constexpr std::size_t kKeyWidth = 104;  // the firewall 5-tuple width

tcam::TernaryWord RandomPattern(analognf::RandomStream& rng) {
  std::string s(kKeyWidth, 'X');
  for (char& c : s) {
    const std::size_t roll = rng.NextIndex(4);
    if (roll == 0) c = '0';
    if (roll == 1) c = '1';
  }
  return tcam::TernaryWord::FromString(s);
}

tcam::BitKey RandomKey(analognf::RandomStream& rng) {
  std::string s(kKeyWidth, '0');
  for (char& c : s) c = rng.NextIndex(2) == 0 ? '0' : '1';
  return tcam::BitKey::FromString(s);
}

// Engine variants under test. Same rule set (same seed) per row count,
// so the timings and winners are directly comparable across variants.
enum class Variant { kLinear, kPruned };

const char* VariantName(Variant v) {
  return v == Variant::kLinear ? "engine_linear" : "engine_pruned";
}

tcam::TcamSearchConfig VariantConfig(Variant v) {
  tcam::TcamSearchConfig config;
  if (v == Variant::kLinear) {
    // min_slots past any real table size pins the compiler to the
    // linear tier.
    config.classifier.min_slots = std::numeric_limits<std::size_t>::max();
  }
  return config;
}

// A committed table plus its own metrics registry, so the JSON pass can
// read back tcam.candidates / tcam.rows_scanned deltas per timed region.
struct BenchTable {
  BenchTable(std::size_t rows, Variant v)
      : table(kKeyWidth, tcam::TcamTechnology::MemristorTcam(),
              VariantConfig(v)) {
    analognf::RandomStream rng(0x7ca3 + rows);
    for (std::size_t i = 0; i < rows; ++i) {
      table.Insert({RandomPattern(rng), static_cast<std::uint32_t>(i),
                    static_cast<std::int32_t>(rng.NextIndex(8))});
    }
    table.Commit();
    table.BindTelemetry(registry, "tcam");
  }

  telemetry::MetricsRegistry registry;
  tcam::TcamTable table;
};

// Tables are rebuilt per (rows, variant) but shared between the
// benchmark registrations and the JSON self-timing pass.
BenchTable& CachedTable(std::size_t rows, Variant v = Variant::kPruned) {
  static std::map<std::pair<std::size_t, int>, std::unique_ptr<BenchTable>>
      cache;
  std::unique_ptr<BenchTable>& slot =
      cache[{rows, static_cast<int>(v)}];
  if (!slot) slot = std::make_unique<BenchTable>(rows, v);
  return *slot;
}

std::uint64_t CounterValue(telemetry::MetricsRegistry& registry,
                           const std::string& name) {
  for (const auto& c : registry.Snapshot().counters) {
    if (c.name == name) return c.value;
  }
  return 0;
}

std::vector<tcam::BitKey> ProbeKeys(std::size_t count) {
  analognf::RandomStream rng(0xbeef);
  std::vector<tcam::BitKey> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) keys.push_back(RandomKey(rng));
  return keys;
}

// The pre-engine baseline: priority-resolved rowwise TernaryWord scan
// over the raw slot array.
std::optional<tcam::TcamEngineHit> ScalarScan(const tcam::TcamTable& table,
                                              const tcam::BitKey& key) {
  std::optional<tcam::TcamEngineHit> best;
  const auto& entries = table.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!table.IsLive(i)) continue;
    if (!entries[i].pattern.Matches(key)) continue;
    if (!best.has_value() || entries[i].priority > best->priority) {
      best = tcam::TcamEngineHit{i, entries[i].action, entries[i].priority};
    }
  }
  return best;
}

void Report() {
  bench::Banner("TCAM match throughput: rowwise scan vs compiled engine");
  bench::Line("both models charge identical per-cycle hardware energy; "
              "the engine only changes simulation throughput");
}

// --- google-benchmark timings -------------------------------------------

void BM_ScalarScan(benchmark::State& state) {
  tcam::TcamTable& table =
      CachedTable(static_cast<std::size_t>(state.range(0))).table;
  const auto keys = ProbeKeys(64);
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ScalarScan(table, keys[q]));
    q = (q + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ScalarScan)->Arg(256)->Arg(1024)->Arg(4096);

// Arg 0 = rows, arg 1 = variant (0 linear tier, 1 pruned tier).
void BM_EngineSearch(benchmark::State& state) {
  tcam::TcamTable& table =
      CachedTable(static_cast<std::size_t>(state.range(0)),
                  state.range(1) == 0 ? Variant::kLinear : Variant::kPruned)
          .table;
  const auto keys = ProbeKeys(64);
  const auto snap = table.snapshot();
  std::size_t q = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap->engine.Search(keys[q]));
    q = (q + 1) % keys.size();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EngineSearch)
    ->Args({256, 0})
    ->Args({256, 1})
    ->Args({1024, 0})
    ->Args({1024, 1})
    ->Args({4096, 0})
    ->Args({4096, 1});

// Args = {rows, batch size}; pruned tier (the production config).
void BM_EngineSearchBatch(benchmark::State& state) {
  tcam::TcamTable& table =
      CachedTable(static_cast<std::size_t>(state.range(0))).table;
  const auto batch = static_cast<std::size_t>(state.range(1));
  const auto keys = ProbeKeys(batch);
  const auto snap = table.snapshot();
  std::vector<std::optional<tcam::TcamEngineHit>> out;
  for (auto _ : state) {
    snap->engine.SearchBatch(keys.data(), keys.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EngineSearchBatch)
    ->Args({1024, 256})
    ->Args({4096, 256})
    ->Args({4096, 1024})
    ->Unit(benchmark::kMicrosecond);

// --- machine-readable measurements (BENCH_tcam.json) --------------------

struct JsonMeasurement {
  std::string mode;  // "scalar_ref", "engine_linear" or "engine_pruned"
  std::string tier;  // tier the compiler chose ("none" for scalar_ref)
  std::size_t rows;
  std::size_t batch;
  double ns_per_search;
  double speedup_vs_scalar;      // 0 for the scalar rows themselves
  double expected_prune_ratio;   // analytic, from the compiled classifier
  double measured_prune_ratio;   // from the tcam.candidates counter
};

double TimeScalarNs(tcam::TcamTable& table, std::size_t probes) {
  const auto keys = ProbeKeys(64);
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < probes; ++i) {
    benchmark::DoNotOptimize(ScalarScan(table, keys[i % keys.size()]));
  }
  const std::chrono::duration<double, std::nano> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() / static_cast<double>(probes);
}

double TimeEngineBatchNs(tcam::TcamTable& table, std::size_t batch,
                         std::size_t reps) {
  const auto keys = ProbeKeys(batch);
  const auto snap = table.snapshot();
  std::vector<std::optional<tcam::TcamEngineHit>> out;
  snap->engine.SearchBatch(keys.data(), keys.size(), out);  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    snap->engine.SearchBatch(keys.data(), keys.size(), out);
    benchmark::DoNotOptimize(out.data());
  }
  const std::chrono::duration<double, std::nano> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() / static_cast<double>(reps * batch);
}

void EmitTcamJson() {
  const std::size_t row_counts[] = {256, 1024, 4096};
  const std::size_t batches[] = {1, 256, 1024};
  const Variant variants[] = {Variant::kLinear, Variant::kPruned};
  std::vector<JsonMeasurement> measurements;
  for (const std::size_t rows : row_counts) {
    const std::size_t probes = rows >= 4096 ? 200 : 1000;
    const double scalar_ns =
        TimeScalarNs(CachedTable(rows).table, probes);
    measurements.push_back(
        {"scalar_ref", "none", rows, 1, scalar_ns, 0.0, 0.0, 0.0});
    for (const Variant v : variants) {
      BenchTable& bt = CachedTable(rows, v);
      const auto& engine = bt.table.snapshot()->engine;
      const char* tier =
          engine.tier() == tcam::TcamMatchTier::kPruned ? "pruned" : "linear";
      const double expected_ratio =
          engine.tier() == tcam::TcamMatchTier::kPruned
              ? 1.0 - engine.expected_prune_density()
              : 0.0;
      for (const std::size_t batch : batches) {
        const std::size_t reps = batch == 1 ? 2000 : (batch >= 1024 ? 8 : 32);
        const std::uint64_t cand0 = CounterValue(bt.registry, "tcam.candidates");
        const std::uint64_t scan0 =
            CounterValue(bt.registry, "tcam.rows_scanned");
        const double ns = TimeEngineBatchNs(bt.table, batch, reps);
        const std::uint64_t dc =
            CounterValue(bt.registry, "tcam.candidates") - cand0;
        const std::uint64_t ds =
            CounterValue(bt.registry, "tcam.rows_scanned") - scan0;
        const double measured_ratio =
            ds > 0 ? 1.0 - static_cast<double>(dc) / static_cast<double>(ds)
                   : 0.0;
        measurements.push_back({VariantName(v), tier, rows, batch, ns,
                                scalar_ns / ns, expected_ratio,
                                engine.tier() == tcam::TcamMatchTier::kPruned
                                    ? measured_ratio
                                    : 0.0});
      }
    }
  }

  bench::JsonArray results{"results", {}};
  for (const JsonMeasurement& m : measurements) {
    results.items.push_back(
        {bench::JsonStr("mode", m.mode), bench::JsonStr("tier", m.tier),
         bench::JsonInt("rows", m.rows), bench::JsonInt("batch", m.batch),
         bench::JsonNum("ns_per_search", m.ns_per_search),
         bench::JsonNum("searches_per_s", 1.0e9 / m.ns_per_search),
         bench::JsonNum("speedup_vs_scalar", m.speedup_vs_scalar),
         bench::JsonNum("expected_prune_ratio", m.expected_prune_ratio),
         bench::JsonNum("measured_prune_ratio", m.measured_prune_ratio)});
  }
  bench::WriteBenchJson(
      "BENCH_tcam.json",
      {bench::JsonStr("bench", "tcam_throughput"),
       bench::JsonStr("isa", simd::IsaName()),
       bench::JsonInt("key_width", kKeyWidth)},
      {results}, std::to_string(measurements.size()) + " measurements");
}

void ReportAndEmitJson() {
  Report();
  EmitTcamJson();
}

}  // namespace

ANALOGNF_BENCH_MAIN(ReportAndEmitJson)
