// Incremental-commit latency at scale: what a single-rule table change
// costs once the delta-commit pipeline patches the published snapshot
// instead of rebuilding the world. Measures, for each table engine at
// its headline scale —
//   * flat DIR-24-8 LPM at 1M routes,
//   * compiled TCAM at 256k rules,
//   * pCAM at 64k rows —
// the full build/recompile cost, the single-rule (insert/erase or
// reprogram) commit latency through the delta path, and the steady-state
// lookup cost per packet against the committed snapshot (median and
// quartiles over kLookupReps separately timed batches).
//
// Results go to BENCH_commit.json; scripts/bench_budget.json gates the
// single-rule commit latencies and the TCAM and pCAM lookup medians via
// scripts/check_bench.py.
#include "bench_util.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analognf/common/rng.hpp"
#include "analognf/common/simd.hpp"
#include "analognf/core/pcam_array.hpp"
#include "analognf/tcam/tcam.hpp"

namespace {

using namespace analognf;

constexpr std::size_t kLpmRoutes = 1000000;
constexpr std::size_t kTcamRules = 262144;
constexpr std::size_t kPcamRows = 65536;
constexpr std::size_t kTcamWidth = 32;

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// The headline tables are expensive to build; cache them across the
// google-benchmark registrations and the JSON self-timing pass. Each
// cache also records the wall time of the initial full-build commit —
// the "world rebuild" baseline the delta path is measured against.

struct CachedLpm {
  std::unique_ptr<tcam::LpmTable> table;
  double full_build_ns = 0.0;
};

CachedLpm& LpmFixture() {
  static CachedLpm cached;
  if (!cached.table) {
    cached.table =
        std::make_unique<tcam::LpmTable>(tcam::TcamTechnology::MemristorTcam());
    analognf::RandomStream rng(0x10ad5);
    for (std::size_t i = 0; i < kLpmRoutes; ++i) {
      const auto value =
          static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
      // Mostly /24s (one direct slot each) with a /28 tail so the flat
      // tier's tbl8 extension pages are part of the working set.
      const int len = i % 20 == 0 ? 28 : 24;
      cached.table->AddRoute(value, len,
                             static_cast<std::uint32_t>(i % 64));
    }
    const std::uint64_t t0 = NowNs();
    cached.table->Commit();
    cached.full_build_ns = static_cast<double>(NowNs() - t0);
  }
  return cached;
}

struct CachedTcam {
  std::unique_ptr<tcam::TcamTable> table;
  double full_build_ns = 0.0;
};

CachedTcam& TcamFixture() {
  static CachedTcam cached;
  if (!cached.table) {
    cached.table = std::make_unique<tcam::TcamTable>(
        kTcamWidth, tcam::TcamTechnology::MemristorTcam());
    analognf::RandomStream rng(0xace5);
    for (std::size_t i = 0; i < kTcamRules; ++i) {
      const auto value =
          static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
      cached.table->Insert(
          {tcam::TernaryWord::FromPrefix(value, 24),
           static_cast<std::uint32_t>(i),
           static_cast<std::int32_t>(rng.NextIndex(4))});
    }
    const std::uint64_t t0 = NowNs();
    cached.table->Commit();
    cached.full_build_ns = static_cast<double>(NowNs() - t0);
  }
  return cached;
}

struct CachedPcam {
  std::unique_ptr<core::PcamTable> table;
  double full_build_ns = 0.0;
};

CachedPcam& PcamFixture() {
  static CachedPcam cached;
  if (!cached.table) {
    cached.table =
        std::make_unique<core::PcamTable>(1, core::HardwarePcamConfig{});
    for (std::size_t i = 0; i < kPcamRows; ++i) {
      const double center = 1.0 + 0.01 * static_cast<double>(i % 512);
      cached.table->Insert({"row" + std::to_string(i),
                            {core::PcamParams::MakeBand(center, 0.002, 0.01)},
                            static_cast<std::uint32_t>(i)});
    }
    const std::uint64_t t0 = NowNs();
    cached.table->Commit();
    cached.full_build_ns = static_cast<double>(NowNs() - t0);
  }
  return cached;
}

// --- single-rule commit sampling ----------------------------------------

struct CommitSamples {
  double mean_ns = 0.0;
  double max_ns = 0.0;
  std::size_t count = 0;
  std::uint64_t delta_commits = 0;  // of `count`, how many patched
};

CommitSamples Summarize(const std::vector<std::uint64_t>& ns,
                        std::uint64_t delta_commits) {
  CommitSamples s;
  s.count = ns.size();
  s.delta_commits = delta_commits;
  for (const std::uint64_t v : ns) {
    s.mean_ns += static_cast<double>(v);
    if (static_cast<double>(v) > s.max_ns) s.max_ns = static_cast<double>(v);
  }
  if (!ns.empty()) s.mean_ns /= static_cast<double>(ns.size());
  return s;
}

CommitSamples SampleLpmCommits(std::size_t pairs) {
  tcam::LpmTable& table = *LpmFixture().table;
  analognf::RandomStream rng(0x5eed1);
  std::vector<std::uint64_t> ns;
  const std::uint64_t delta0 = table.commit_stats().delta_commits;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto value =
        static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
    const std::size_t index =
        table.AddRoute(value, i % 2 == 0 ? 24 : 28, 3);
    table.Commit();
    ns.push_back(table.commit_stats().last_commit_ns);
    table.WithdrawRoute(index);
    table.Commit();
    ns.push_back(table.commit_stats().last_commit_ns);
  }
  return Summarize(ns, table.commit_stats().delta_commits - delta0);
}

CommitSamples SampleTcamCommits(std::size_t pairs) {
  tcam::TcamTable& table = *TcamFixture().table;
  analognf::RandomStream rng(0x5eed2);
  std::vector<std::uint64_t> ns;
  const std::uint64_t delta0 = table.commit_stats().delta_commits;
  for (std::size_t i = 0; i < pairs; ++i) {
    const auto value =
        static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
    const std::size_t index = table.Insert(
        {tcam::TernaryWord::FromPrefix(value, 24), 77, 2});
    table.Commit();
    ns.push_back(table.commit_stats().last_commit_ns);
    table.Erase(index);
    table.Commit();
    ns.push_back(table.commit_stats().last_commit_ns);
  }
  return Summarize(ns, table.commit_stats().delta_commits - delta0);
}

CommitSamples SamplePcamCommits(std::size_t reprograms) {
  core::PcamTable& table = *PcamFixture().table;
  analognf::RandomStream rng(0x5eed3);
  std::vector<std::uint64_t> ns;
  const std::uint64_t delta0 = table.commit_stats().delta_commits;
  for (std::size_t i = 0; i < reprograms; ++i) {
    const std::size_t row = rng.NextIndex(kPcamRows);
    const double center = 1.0 + 0.01 * static_cast<double>(rng.NextIndex(512));
    table.ProgramField(row, 0,
                       core::PcamParams::MakeBand(center, 0.002, 0.01));
    table.Commit();
    ns.push_back(table.commit_stats().last_commit_ns);
  }
  return Summarize(ns, table.commit_stats().delta_commits - delta0);
}

// --- steady-state lookup cost -------------------------------------------

// Separately timed lookup batches per engine, after one warm-up batch.
constexpr std::size_t kLookupReps = 21;

// Per-packet lookup cost over kLookupReps batches: the median and the
// quartiles, so that a batch a busy host slows down moves neither.
struct LookupTiming {
  double median_ns = 0.0;
  double q1_ns = 0.0;
  double q3_ns = 0.0;
};

// Runs `batch`, which looks up `packets` keys, once to warm up and then
// kLookupReps times, timing each run on its own.
template <typename Batch>
LookupTiming TimeLookups(std::size_t packets, Batch batch) {
  batch();
  std::vector<double> ns(kLookupReps);
  for (double& v : ns) {
    const std::uint64_t t0 = NowNs();
    batch();
    v = static_cast<double>(NowNs() - t0) / static_cast<double>(packets);
  }
  std::sort(ns.begin(), ns.end());
  return {ns[kLookupReps / 2], ns[kLookupReps / 4], ns[3 * kLookupReps / 4]};
}

LookupTiming LpmLookup() {
  tcam::LpmTable& table = *LpmFixture().table;
  analognf::RandomStream rng(0x100c1);
  std::vector<std::uint32_t> addrs(4096);
  for (auto& a : addrs) {
    a = static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
  }
  const auto snap = table.snapshot();
  std::vector<std::optional<tcam::TcamEngineHit>> out;
  return TimeLookups(addrs.size(), [&] {
    snap->engine.LookupBatch(addrs.data(), addrs.size(), out);
  });
}

LookupTiming TcamLookup() {
  tcam::TcamTable& table = *TcamFixture().table;
  analognf::RandomStream rng(0x100c2);
  std::vector<tcam::BitKey> keys;
  for (std::size_t i = 0; i < 1024; ++i) {
    tcam::BitKey key;
    key.AppendU32(static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL)));
    keys.push_back(std::move(key));
  }
  const auto snap = table.snapshot();
  std::vector<std::optional<tcam::TcamEngineHit>> out;
  return TimeLookups(keys.size(), [&] {
    snap->engine.SearchBatch(keys.data(), keys.size(), out);
  });
}

LookupTiming PcamLookup() {
  core::PcamTable& table = *PcamFixture().table;
  std::vector<double> queries(64);
  for (std::size_t q = 0; q < queries.size(); ++q) {
    queries[q] = 1.0 + 0.01 * static_cast<double>(q % 512);
  }
  return TimeLookups(queries.size(), [&] {
    benchmark::DoNotOptimize(table.SearchBatchFlat(queries));
  });
}

// --- report + JSON ------------------------------------------------------

void AppendEngineRows(bench::JsonArray& results, const char* engine,
                      std::size_t rows, double full_build_ns,
                      const CommitSamples& commit,
                      const LookupTiming& lookup) {
  results.items.push_back({bench::JsonStr("engine", engine),
                           bench::JsonInt("rows", rows),
                           bench::JsonStr("op", "full_rebuild"),
                           bench::JsonNum("mean_ns", full_build_ns)});
  results.items.push_back(
      {bench::JsonStr("engine", engine), bench::JsonInt("rows", rows),
       bench::JsonStr("op", "single_rule_commit"),
       bench::JsonNum("mean_ns", commit.mean_ns),
       bench::JsonNum("max_ns", commit.max_ns),
       bench::JsonInt("samples", commit.count),
       bench::JsonInt("delta_commits", commit.delta_commits),
       bench::JsonNum("speedup_vs_rebuild",
                      commit.mean_ns > 0.0 ? full_build_ns / commit.mean_ns
                                           : 0.0)});
  results.items.push_back({bench::JsonStr("engine", engine),
                           bench::JsonInt("rows", rows),
                           bench::JsonStr("op", "lookup"),
                           bench::JsonNum("ns_per_packet", lookup.median_ns),
                           bench::JsonNum("ns_per_packet_q1", lookup.q1_ns),
                           bench::JsonNum("ns_per_packet_q3", lookup.q3_ns),
                           bench::JsonInt("repetitions", kLookupReps)});
}

void ReportAndEmitJson() {
  bench::Banner(
      "Incremental commit: single-rule change vs world rebuild");

  const CommitSamples lpm_commit = SampleLpmCommits(32);
  const LookupTiming lpm_lookup = LpmLookup();
  const CommitSamples tcam_commit = SampleTcamCommits(32);
  const LookupTiming tcam_lookup = TcamLookup();
  const CommitSamples pcam_commit = SamplePcamCommits(32);
  const LookupTiming pcam_lookup = PcamLookup();

  Table table({"engine", "rows", "full rebuild", "single-rule commit",
               "lookup / pkt (median)", "lookup IQR"});
  auto us = [](double ns) {
    return std::to_string(ns / 1000.0).substr(0, 8) + " us";
  };
  auto per_pkt = [](double v) {
    return std::to_string(v).substr(0, 6) + " ns";
  };
  table.AddRow({"LPM flat (DIR-24-8)", std::to_string(kLpmRoutes),
                us(LpmFixture().full_build_ns), us(lpm_commit.mean_ns),
                per_pkt(lpm_lookup.median_ns),
                per_pkt(lpm_lookup.q3_ns - lpm_lookup.q1_ns)});
  table.AddRow({"TCAM compiled", std::to_string(kTcamRules),
                us(TcamFixture().full_build_ns), us(tcam_commit.mean_ns),
                per_pkt(tcam_lookup.median_ns),
                per_pkt(tcam_lookup.q3_ns - tcam_lookup.q1_ns)});
  table.AddRow({"pCAM", std::to_string(kPcamRows),
                us(PcamFixture().full_build_ns), us(pcam_commit.mean_ns),
                per_pkt(pcam_lookup.median_ns),
                per_pkt(pcam_lookup.q3_ns - pcam_lookup.q1_ns)});
  bench::PrintTable(table);
  bench::Line("delta commits patch the published snapshot: a one-rule "
              "change no longer pays the full recompile");

  bench::JsonArray results{"results", {}};
  AppendEngineRows(results, "lpm_flat", kLpmRoutes,
                   LpmFixture().full_build_ns, lpm_commit, lpm_lookup);
  AppendEngineRows(results, "tcam", kTcamRules, TcamFixture().full_build_ns,
                   tcam_commit, tcam_lookup);
  AppendEngineRows(results, "pcam", kPcamRows, PcamFixture().full_build_ns,
                   pcam_commit, pcam_lookup);
  bench::WriteBenchJson(
      "BENCH_commit.json",
      {bench::JsonStr("bench", "commit_latency"),
       bench::JsonStr("isa", simd::IsaName())},
      {results}, std::to_string(results.items.size()) + " measurements");
}

// --- google-benchmark timings -------------------------------------------

void BM_LpmSingleRouteCommit(benchmark::State& state) {
  tcam::LpmTable& table = *LpmFixture().table;
  analognf::RandomStream rng(0xb001);
  for (auto _ : state) {
    const auto value =
        static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
    const std::size_t index = table.AddRoute(value, 24, 3);
    table.Commit();
    table.WithdrawRoute(index);
    table.Commit();
  }
  state.SetItemsProcessed(2 * static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LpmSingleRouteCommit)->Unit(benchmark::kMicrosecond);

void BM_TcamSingleRuleCommit(benchmark::State& state) {
  tcam::TcamTable& table = *TcamFixture().table;
  analognf::RandomStream rng(0xb002);
  for (auto _ : state) {
    const auto value =
        static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
    const std::size_t index = table.Insert(
        {tcam::TernaryWord::FromPrefix(value, 24), 77, 2});
    table.Commit();
    table.Erase(index);
    table.Commit();
  }
  state.SetItemsProcessed(2 * static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TcamSingleRuleCommit)->Unit(benchmark::kMicrosecond);

void BM_PcamSingleRowCommit(benchmark::State& state) {
  core::PcamTable& table = *PcamFixture().table;
  analognf::RandomStream rng(0xb003);
  for (auto _ : state) {
    const std::size_t row = rng.NextIndex(kPcamRows);
    const double center =
        1.0 + 0.01 * static_cast<double>(rng.NextIndex(512));
    table.ProgramField(row, 0,
                       core::PcamParams::MakeBand(center, 0.002, 0.01));
    table.Commit();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PcamSingleRowCommit)->Unit(benchmark::kMicrosecond);

}  // namespace

ANALOGNF_BENCH_MAIN(ReportAndEmitJson)
