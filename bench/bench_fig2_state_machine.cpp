// Fig. 2: The analog state machine of the memristor.
//
// "n" state machines (programming-pulse amplitude families) times "m"
// states each; the same input applied from different initial states
// yields different outputs, which is the property pCAM programming
// relies on. The bench prints the state/resistance trajectories of the
// synthetic Nb:SrTiO3 device.
#include "bench_util.hpp"

#include "analognf/common/units.hpp"
#include "analognf/device/dataset.hpp"
#include "analognf/device/memristor.hpp"

namespace {

using namespace analognf;

void Report() {
  bench::Banner("Fig. 2: memristor analog state machines (n x m grid)");

  device::SynthesisConfig config;
  config.states_per_machine = 8;
  config.read_voltages_v = {0.5};
  const device::MemristorDataset ds =
      device::MemristorDataset::Synthesize(config);

  Table table({"machine", "pulse V", "pulse#", "state s", "R (ohm)",
               "I@0.5V (A)"});
  for (const auto& r : ds.records()) {
    table.AddRow({std::to_string(r.state_machine),
                  FormatSig(r.pulse_amplitude_v, 3),
                  std::to_string(r.pulse_count), FormatSig(r.state, 4),
                  FormatSig(r.resistance_ohm, 4),
                  FormatSig(r.read_current_a, 4)});
  }
  bench::PrintTable(table);

  // The Fig. 2 property: identical input, different programmed initial
  // states, different outputs.
  device::Memristor low(device::MemristorParams::NbSrTiO3(), 0.2);
  device::Memristor high(device::MemristorParams::NbSrTiO3(), 0.8);
  bench::Line(
      "same 0.5 V input, different initial states: I(s=0.2) = " +
      FormatSig(low.ReadCurrentA(0.5), 4) + " A, I(s=0.8) = " +
      FormatSig(high.ReadCurrentA(0.5), 4) + " A");
  bench::Line("paper: memristor yields distinct outputs per programmed "
              "initial state; reprogramming creates a new state machine");
}

// --- timings ------------------------------------------------------------

void BM_ApplyPulse(benchmark::State& state) {
  device::Memristor cell(device::MemristorParams::NbSrTiO3(), 0.5);
  double amplitude = 1.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.ApplyPulse(amplitude, 1e-6));
    amplitude = -amplitude;  // keep the state mid-range
  }
}
BENCHMARK(BM_ApplyPulse);

void BM_ReadEnergy(benchmark::State& state) {
  device::Memristor cell(device::MemristorParams::NbSrTiO3(), 0.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.ReadEnergyJ(2.0));
  }
}
BENCHMARK(BM_ReadEnergy);

void BM_PulseTrainProgramming(benchmark::State& state) {
  for (auto _ : state) {
    device::Memristor cell(device::MemristorParams::NbSrTiO3(), 0.0);
    benchmark::DoNotOptimize(cell.ApplyPulseTrain(1.5, 1e-3, 16));
  }
}
BENCHMARK(BM_PulseTrainProgramming);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
