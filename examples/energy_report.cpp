// Energy report: synthesise the Nb:SrTiO3 characterisation dataset,
// save it as CSV, and print the Sec. 6 / Table 1 energy analysis.
//
// Usage: energy_report [output.csv]
// If a path is given, the full dataset is written there for plotting.
#include <cstdio>
#include <fstream>
#include <iostream>

#include "analognf/common/table.hpp"
#include "analognf/common/units.hpp"
#include "analognf/device/dataset.hpp"
#include "analognf/energy/reference.hpp"

using namespace analognf;

int main(int argc, char** argv) {
  device::SynthesisConfig config;
  config.states_per_machine = 24;
  const device::MemristorDataset dataset =
      device::MemristorDataset::Synthesize(config);

  std::printf("synthesised %zu characterisation points (%d machines x %d "
              "states x %zu read voltages)\n",
              dataset.size(), device::kStateMachines,
              config.states_per_machine + 1,
              config.read_voltages_v.size());
  std::printf("distinct programmable resistance levels: %zu\n\n",
              dataset.DistinctResistances(1e-3).size());

  const device::EnergyEnvelope env = dataset.ComputeEnvelope();
  std::printf("energy envelope per bit per cell:\n");
  std::printf("  min:  %s (paper: 0.01 fJ)\n",
              FormatEnergy(env.min_energy_j).c_str());
  std::printf("  max:  %s (paper: 0.16 nJ)\n",
              FormatEnergy(env.max_energy_j).c_str());
  std::printf("  mean: %s\n\n", FormatEnergy(env.mean_energy_j).c_str());

  Table table({"design", "energy/bit", "vs pCAM min"});
  for (const auto& d : energy::Table1DigitalDesigns()) {
    table.AddRow({d.key + " " + d.description,
                  FormatEnergy(d.energy_lo_j_per_bit),
                  FormatSig(d.energy_lo_j_per_bit / env.min_energy_j, 3) +
                      "x"});
  }
  table.Print(std::cout);

  if (argc > 1) {
    std::ofstream out(argv[1]);
    if (!out) {
      std::fprintf(stderr, "cannot open %s for writing\n", argv[1]);
      return 1;
    }
    dataset.SaveCsv(out);
    std::printf("\nfull dataset written to %s\n", argv[1]);
  }
  return 0;
}
