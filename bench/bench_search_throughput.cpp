// Search latency/throughput scaling: the Table 1 latency column in
// context. Functional-model searches per second for the digital TCAM
// and the analog pCAM table across table sizes and key widths, plus the
// modelled hardware latency both technologies would exhibit.
//
// Besides the google-benchmark timings, this binary self-times the
// single and batched search paths and writes the measurements to
// BENCH_search.json (machine-readable, consumed by CI).
#include "bench_util.hpp"

#include <chrono>
#include <fstream>
#include <map>
#include <memory>

#include "analognf/common/simd.hpp"
#include "analognf/common/units.hpp"
#include "analognf/core/pcam_array.hpp"
#include "analognf/tcam/tcam.hpp"

namespace {

using namespace analognf;

// Tables are expensive to build at 64k rows; cache them across benchmark
// re-entry and the JSON self-timing pass.
core::PcamTable& CachedPcamTable(std::size_t rows) {
  static std::map<std::size_t, std::unique_ptr<core::PcamTable>> cache;
  std::unique_ptr<core::PcamTable>& slot = cache[rows];
  if (!slot) {
    slot = std::make_unique<core::PcamTable>(1, core::HardwarePcamConfig{});
    for (std::size_t i = 0; i < rows; ++i) {
      const double center = 1.0 + 0.01 * static_cast<double>(i % 512);
      slot->Insert({"row" + std::to_string(i),
                    {core::PcamParams::MakeBand(center, 0.002, 0.01)},
                    static_cast<std::uint32_t>(i)});
    }
    slot->Commit();
  }
  return *slot;
}

void Report() {
  bench::Banner("Search scaling: modelled hardware latency per search");
  Table table({"design", "latency", "energy per 104-bit search"});
  const auto cmos = tcam::TcamTechnology::TransistorCmos();
  const auto mtcam = tcam::TcamTechnology::MemristorTcam();
  table.AddRow({cmos.name, FormatDuration(cmos.search_latency_s),
                FormatEnergy(104.0 * cmos.search_energy_per_bit_j)});
  table.AddRow({mtcam.name, FormatDuration(mtcam.search_latency_s),
                FormatEnergy(104.0 * mtcam.search_energy_per_bit_j)});
  core::HardwarePcamCell cell(
      core::PcamParams::MakeTrapezoid(1.5, 2.5, 4.5, 5.0),
      core::HardwarePcamConfig{});
  table.AddRow({"pCAM (this work)", "1 ns",
                FormatEnergy(104.0 * cell.SearchEnergyJ(0.1))});
  bench::PrintTable(table);
  bench::Line("paper Table 1: all designs search in O(ns); the analog "
              "advantage is energy, not raw latency");
}

// --- timings: functional-model throughput -------------------------------

void BM_TcamSearchScaling(benchmark::State& state) {
  const auto entries = static_cast<std::size_t>(state.range(0));
  tcam::TcamTable table(32, tcam::TcamTechnology::MemristorTcam());
  for (std::size_t i = 0; i < entries; ++i) {
    table.Insert({tcam::TernaryWord::FromPrefix(
                      static_cast<std::uint32_t>(i * 2654435761u), 24),
                  static_cast<std::uint32_t>(i), 0});
  }
  table.Commit();
  tcam::BitKey key;
  key.AppendU32(0xdeadbeef);
  const auto snap = table.snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(snap->engine.Search(key));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TcamSearchScaling)->Arg(16)->Arg(256)->Arg(4096);

void BM_PcamTableSearchScaling(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  core::PcamTable table(1, core::HardwarePcamConfig{});
  for (std::size_t i = 0; i < rows; ++i) {
    const double center = 1.0 + 0.01 * static_cast<double>(i);
    table.Insert({"row" + std::to_string(i),
                  {core::PcamParams::MakeBand(center, 0.002, 0.01)},
                  static_cast<std::uint32_t>(i)});
  }
  table.Commit();
  const std::vector<double> probe = {1.5};
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Search(probe));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_PcamTableSearchScaling)->Arg(16)->Arg(64)->Arg(256);

// Batched search over large tables: one snapshot refresh and shared
// scratch per batch instead of per probe. Args = {rows, batch size}.
void BM_PcamTableSearchBatched(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const auto batch = static_cast<std::size_t>(state.range(1));
  core::PcamTable& table = CachedPcamTable(rows);
  std::vector<double> queries(batch);
  for (std::size_t q = 0; q < batch; ++q) {
    queries[q] = 1.0 + 0.01 * static_cast<double>(q % 512);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.SearchBatchFlat(queries));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PcamTableSearchBatched)
    ->Args({4096, 64})
    ->Args({65536, 64})
    ->Unit(benchmark::kMicrosecond);

void BM_PcamWordWidthScaling(benchmark::State& state) {
  const auto width = static_cast<std::size_t>(state.range(0));
  std::vector<core::PcamParams> fields(
      width, core::PcamParams::MakeTrapezoid(1.0, 2.0, 3.0, 4.0));
  core::PcamWord word(fields, core::HardwarePcamConfig{});
  const std::vector<double> inputs(width, 2.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(word.Evaluate(inputs));
  }
  state.counters["width"] = static_cast<double>(width);
}
BENCHMARK(BM_PcamWordWidthScaling)->Arg(1)->Arg(8)->Arg(32)->Arg(104);

// --- machine-readable measurements (BENCH_search.json) ------------------

struct JsonMeasurement {
  const char* mode;       // "single" or "batched"
  std::size_t rows;
  std::size_t batch;      // 1 for single searches
  double ns_per_search;
};

double TimeSingleNs(core::PcamTable& table, std::size_t probes) {
  const std::vector<double> probe = {1.5};
  benchmark::DoNotOptimize(table.Search(probe));  // warm the snapshot
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < probes; ++i) {
    benchmark::DoNotOptimize(table.Search(probe));
  }
  const std::chrono::duration<double, std::nano> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() / static_cast<double>(probes);
}

double TimeBatchedNs(core::PcamTable& table, std::size_t batch,
                     std::size_t reps) {
  std::vector<double> queries(batch);
  for (std::size_t q = 0; q < batch; ++q) {
    queries[q] = 1.0 + 0.01 * static_cast<double>(q % 512);
  }
  benchmark::DoNotOptimize(table.SearchBatchFlat(queries));  // warm-up
  const auto t0 = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    benchmark::DoNotOptimize(table.SearchBatchFlat(queries));
  }
  const std::chrono::duration<double, std::nano> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count() / static_cast<double>(reps * batch);
}

void EmitSearchJson() {
  std::vector<JsonMeasurement> measurements;
  for (const std::size_t rows : {std::size_t{256}, std::size_t{4096}}) {
    measurements.push_back(
        {"single", rows, 1, TimeSingleNs(CachedPcamTable(rows), 2000)});
  }
  for (const std::size_t rows :
       {std::size_t{4096}, std::size_t{65536}}) {
    core::PcamTable& table = CachedPcamTable(rows);
    const std::size_t reps = rows >= 65536 ? 4 : 32;
    measurements.push_back(
        {"batched", rows, 64, TimeBatchedNs(table, 64, reps)});
  }

  bench::JsonArray results{"results", {}};
  for (const JsonMeasurement& m : measurements) {
    results.items.push_back(
        {bench::JsonStr("mode", m.mode), bench::JsonInt("rows", m.rows),
         bench::JsonInt("batch", m.batch),
         bench::JsonNum("ns_per_search", m.ns_per_search),
         bench::JsonNum("searches_per_s", 1.0e9 / m.ns_per_search)});
  }
  bench::WriteBenchJson(
      "BENCH_search.json",
      {bench::JsonStr("bench", "search_throughput"),
       bench::JsonInt("field_count", 1),
       bench::JsonStr("isa", simd::IsaName())},
      {results}, std::to_string(measurements.size()) + " measurements");
}

void ReportAndEmitJson() {
  Report();
  EmitSearchJson();
}

}  // namespace

ANALOGNF_BENCH_MAIN(ReportAndEmitJson)
