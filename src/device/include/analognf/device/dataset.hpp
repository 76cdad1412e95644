// Synthetic reconstruction of the Nb:SrTiO3 memristor chip dataset.
//
// The paper's proof-of-concept evaluates pCAM energy "by using real world
// dataset of Nb-doped SrTiO3 memristor chip" (Sec. 6). This module
// regenerates an equivalent dataset from the behavioural device model:
// a grid of programmed state machines (distinct programming-pulse
// amplitude families, Fig. 2's "n state machines") each swept through a
// ladder of states ("m states"), read at a ladder of read voltages, with
// resistance, current, and per-read energy recorded per point.
//
// The dataset can be saved to / loaded from CSV so experiments can also
// run against a drop-in copy of the real measurements if available.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "analognf/device/memristor.hpp"

namespace analognf::device {

// One measurement point of the (synthetic) chip characterisation.
struct DatasetRecord {
  int state_machine = 0;      // programming-amplitude family index (1..n)
  int state_index = 0;        // state within the machine (1..m)
  double pulse_amplitude_v = 0.0;
  int pulse_count = 0;        // cumulative pulses applied to reach state
  double state = 0.0;         // normalised device state s in [0,1]
  double resistance_ohm = 0.0;
  double read_voltage_v = 0.0;
  double read_current_a = 0.0;
  double read_energy_j = 0.0;  // per bit per cell (one read op)
};

// Aggregate energy statistics over a dataset (Sec. 6's envelope).
struct EnergyEnvelope {
  double min_energy_j = 0.0;
  double max_energy_j = 0.0;
  double mean_energy_j = 0.0;
};

// n: the synthesis sweep's state machines, one per programming
// amplitude, spread linearly over [1.0, 2.5] V.
inline constexpr int kStateMachines = 4;

// Configuration of the synthesis sweep over the Nb:SrTiO3 device.
struct SynthesisConfig {
  int states_per_machine = 16;  // m: pulse steps per machine
  // Read-voltage sweep (the pCAM search-voltage range of Fig. 7a).
  std::vector<double> read_voltages_v = {0.1, 0.5, 1.0, 2.0, 3.0, 4.0};

  void Validate() const;  // throws std::invalid_argument
};

// An immutable collection of characterisation records.
class MemristorDataset {
 public:
  MemristorDataset() = default;
  explicit MemristorDataset(std::vector<DatasetRecord> records);

  // Runs the synthesis sweep described in SynthesisConfig. The
  // Nb:SrTiO3 model has no programming noise, so the sweep is
  // deterministic.
  static MemristorDataset Synthesize(const SynthesisConfig& config);

  // CSV round-trip (header + one record per line). Load throws
  // std::runtime_error on malformed input: a wrong field count, a cell
  // that does not parse in full, or a non-finite number.
  void SaveCsv(std::ostream& os) const;
  static MemristorDataset LoadCsv(std::istream& is);

  const std::vector<DatasetRecord>& records() const { return records_; }
  bool empty() const { return records_.empty(); }
  std::size_t size() const { return records_.size(); }

  // Sec. 6 energy numbers: min / max / mean read energy per bit per cell
  // over all records. Requires a non-empty dataset.
  EnergyEnvelope ComputeEnvelope() const;

  // Distinct programmed resistance levels, ascending. `tolerance` merges
  // levels whose relative difference is below it.
  std::vector<double> DistinctResistances(double tolerance = 1e-6) const;

  // Lowest-energy record at (approximately) the given read voltage.
  // Requires at least one record within `v_tolerance` of v_read.
  DatasetRecord CheapestReadAt(double v_read,
                               double v_tolerance = 1e-9) const;

 private:
  std::vector<DatasetRecord> records_;
};

}  // namespace analognf::device
