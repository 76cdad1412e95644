// Table 1: Performance comparison of Transistor/Memristor-based
// Digital/Analog computations.
//
// The eight digital columns are the published designs the paper cites;
// the pCAM column is recomputed live from the synthetic Nb:SrTiO3
// dataset (lowest-energy read state), exactly as Sec. 6 derives it.
// Paper values: pCAM latency 1 ns, energy 0.01 fJ/bit.
#include "bench_util.hpp"

#include "analognf/common/units.hpp"
#include "analognf/core/pcam_hardware.hpp"
#include "analognf/device/dataset.hpp"
#include "analognf/energy/reference.hpp"

namespace {

using namespace analognf;

// Projected in-pipeline pCAM read latency (Table 1 row): the analog
// search settles in one clock like the memristor TCAMs it derives from.
constexpr double kPcamLatencyS = 1.0e-9;

device::DatasetRecord PcamCheapestRead() {
  const device::MemristorDataset ds =
      device::MemristorDataset::Synthesize(device::SynthesisConfig{});
  return ds.CheapestReadAt(0.1);
}

void Report() {
  bench::Banner("Table 1: digital designs vs pCAM (this work)");

  Table table({"Research", "Computation (D/A)", "Technology (T/M)",
               "Latency (ns)", "Energy (fJ/bit)"});
  for (const auto& d : energy::Table1DigitalDesigns()) {
    std::string energy_fj = FormatSig(ToFemtojoules(d.energy_lo_j_per_bit), 3);
    if (d.energy_hi_j_per_bit > d.energy_lo_j_per_bit) {
      // append, not `"-" + ...`: g++ 12 -O3 reports a false -Wrestrict
      // inside libstdc++'s operator+(const char*, std::string&&).
      energy_fj.append("-").append(
          FormatSig(ToFemtojoules(d.energy_hi_j_per_bit), 3));
    }
    table.AddRow({d.key, energy::ToString(d.computation),
                  energy::ToString(d.technology),
                  FormatSig(d.latency_s / kNano, 3), energy_fj});
  }

  const device::DatasetRecord pcam = PcamCheapestRead();
  table.AddRow({"pCAM (this work)", "A", "M",
                FormatSig(kPcamLatencyS / kNano, 3),
                FormatSig(ToFemtojoules(pcam.read_energy_j), 3)});
  bench::PrintTable(table);

  const double best = energy::BestDigitalDesign().energy_lo_j_per_bit;
  bench::Line("paper: pCAM = 1 ns, 0.01 fJ/bit; >= 50x vs best digital");
  bench::Line("measured: pCAM = " + FormatEnergy(pcam.read_energy_j) +
              "/bit at " + FormatSig(pcam.read_voltage_v, 3) +
              " V read, R = " + FormatSig(pcam.resistance_ohm, 3) +
              " ohm; advantage vs best digital ([2], 0.58 fJ/bit) = " +
              FormatSig(best / pcam.read_energy_j, 4) + "x");
}

// --- timings: how fast the model itself evaluates -----------------------

void BM_DatasetSynthesis(benchmark::State& state) {
  device::SynthesisConfig config;
  for (auto _ : state) {
    benchmark::DoNotOptimize(device::MemristorDataset::Synthesize(config));
  }
}
BENCHMARK(BM_DatasetSynthesis);

void BM_CheapestReadLookup(benchmark::State& state) {
  const device::MemristorDataset ds =
      device::MemristorDataset::Synthesize(device::SynthesisConfig{});
  for (auto _ : state) {
    benchmark::DoNotOptimize(ds.CheapestReadAt(0.1));
  }
}
BENCHMARK(BM_CheapestReadLookup);

void BM_PcamHardwareEvaluate(benchmark::State& state) {
  core::HardwarePcamCell cell(
      core::PcamParams::MakeTrapezoid(1.5, 2.5, 4.5, 5.0),
      core::HardwarePcamConfig{});
  double v = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.Evaluate(v));
    v = v >= 4.0 ? 1.0 : v + 0.01;
  }
}
BENCHMARK(BM_PcamHardwareEvaluate);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
