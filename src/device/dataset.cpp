#include "analognf/device/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace analognf::device {
namespace {

// Width of every programming pulse of the synthesis sweep.
constexpr double kPulseWidthS = 1.0e-3;
// Programming amplitudes of the state machines are spread linearly over
// [kMinProgramV, kMaxProgramV].
constexpr double kMinProgramV = 1.0;
constexpr double kMaxProgramV = 2.5;

}  // namespace

void SynthesisConfig::Validate() const {
  if (states_per_machine < 1) {
    throw std::invalid_argument("SynthesisConfig: states_per_machine < 1");
  }
  if (read_voltages_v.empty()) {
    throw std::invalid_argument("SynthesisConfig: no read voltages");
  }
}

MemristorDataset::MemristorDataset(std::vector<DatasetRecord> records)
    : records_(std::move(records)) {}

MemristorDataset MemristorDataset::Synthesize(const SynthesisConfig& config) {
  config.Validate();
  std::vector<DatasetRecord> records;
  records.reserve(static_cast<std::size_t>(kStateMachines) *
                  static_cast<std::size_t>(config.states_per_machine) *
                  config.read_voltages_v.size());

  for (int machine = 1; machine <= kStateMachines; ++machine) {
    // Each state machine is one programming-amplitude family, matching
    // Fig. 2: the same pulse applied from different initial states walks
    // a distinct state trajectory.
    const double amplitude =
        kMinProgramV + (kMaxProgramV - kMinProgramV) *
                           static_cast<double>(machine - 1) /
                           static_cast<double>(kStateMachines - 1);
    Memristor cell(MemristorParams::NbSrTiO3(), /*initial_state=*/0.0);
    int pulses_applied = 0;
    // step 0 characterises the pristine (fully RESET) state; steps 1..m
    // follow the pulse train.
    for (int step = 0; step <= config.states_per_machine; ++step) {
      if (step > 0) {
        cell.ApplyPulse(amplitude, kPulseWidthS);
        ++pulses_applied;
      }
      for (double v_read : config.read_voltages_v) {
        DatasetRecord rec;
        rec.state_machine = machine;
        rec.state_index = step;
        rec.pulse_amplitude_v = amplitude;
        rec.pulse_count = pulses_applied;
        rec.state = cell.state();
        rec.resistance_ohm = cell.ResistanceOhm();
        rec.read_voltage_v = v_read;
        rec.read_current_a = cell.ReadCurrentA(v_read);
        rec.read_energy_j = cell.ReadEnergyJ(v_read);
        records.push_back(rec);
      }
    }
  }
  return MemristorDataset(std::move(records));
}

void MemristorDataset::SaveCsv(std::ostream& os) const {
  os << "state_machine,state_index,pulse_amplitude_v,pulse_count,state,"
        "resistance_ohm,read_voltage_v,read_current_a,read_energy_j\n";
  os.precision(17);
  for (const DatasetRecord& r : records_) {
    os << r.state_machine << ',' << r.state_index << ','
       << r.pulse_amplitude_v << ',' << r.pulse_count << ',' << r.state
       << ',' << r.resistance_ohm << ',' << r.read_voltage_v << ','
       << r.read_current_a << ',' << r.read_energy_j << '\n';
  }
}

namespace {

// CSV cells must parse in full: std::stoi("1.5") and std::stod("0.5abc")
// would otherwise stop early and return a prefix.
int ParseIntCell(const std::string& cell) {
  std::size_t pos = 0;
  const int value = std::stoi(cell, &pos);
  if (pos != cell.size()) throw std::invalid_argument("partial integer");
  return value;
}

double ParseFiniteCell(const std::string& cell) {
  std::size_t pos = 0;
  const double value = std::stod(cell, &pos);
  if (pos != cell.size() || !std::isfinite(value)) {
    throw std::invalid_argument("partial or non-finite number");
  }
  return value;
}

}  // namespace

MemristorDataset MemristorDataset::LoadCsv(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    throw std::runtime_error("MemristorDataset::LoadCsv: empty input");
  }
  std::vector<DatasetRecord> records;
  std::size_t line_no = 1;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) continue;
    DatasetRecord r;
    std::istringstream fields(line);
    std::string cell;
    std::vector<std::string> cells;
    while (std::getline(fields, cell, ',')) cells.push_back(cell);
    if (cells.size() != 9) {
      throw std::runtime_error(
          "MemristorDataset::LoadCsv: bad field count on line " +
          std::to_string(line_no));
    }
    try {
      r.state_machine = ParseIntCell(cells[0]);
      r.state_index = ParseIntCell(cells[1]);
      r.pulse_amplitude_v = ParseFiniteCell(cells[2]);
      r.pulse_count = ParseIntCell(cells[3]);
      r.state = ParseFiniteCell(cells[4]);
      r.resistance_ohm = ParseFiniteCell(cells[5]);
      r.read_voltage_v = ParseFiniteCell(cells[6]);
      r.read_current_a = ParseFiniteCell(cells[7]);
      r.read_energy_j = ParseFiniteCell(cells[8]);
    } catch (const std::exception&) {
      throw std::runtime_error(
          "MemristorDataset::LoadCsv: unparsable value on line " +
          std::to_string(line_no));
    }
    records.push_back(r);
  }
  return MemristorDataset(std::move(records));
}

EnergyEnvelope MemristorDataset::ComputeEnvelope() const {
  if (records_.empty()) {
    throw std::logic_error("ComputeEnvelope on empty dataset");
  }
  EnergyEnvelope env;
  env.min_energy_j = records_.front().read_energy_j;
  env.max_energy_j = records_.front().read_energy_j;
  double sum = 0.0;
  for (const DatasetRecord& r : records_) {
    env.min_energy_j = std::min(env.min_energy_j, r.read_energy_j);
    env.max_energy_j = std::max(env.max_energy_j, r.read_energy_j);
    sum += r.read_energy_j;
  }
  env.mean_energy_j = sum / static_cast<double>(records_.size());
  return env;
}

std::vector<double> MemristorDataset::DistinctResistances(
    double tolerance) const {
  std::vector<double> levels;
  levels.reserve(records_.size());
  for (const DatasetRecord& r : records_) {
    levels.push_back(r.resistance_ohm);
  }
  std::sort(levels.begin(), levels.end());
  std::vector<double> distinct;
  for (double r : levels) {
    if (distinct.empty() ||
        std::fabs(r - distinct.back()) > tolerance * distinct.back()) {
      distinct.push_back(r);
    }
  }
  return distinct;
}

DatasetRecord MemristorDataset::CheapestReadAt(double v_read,
                                               double v_tolerance) const {
  const DatasetRecord* best = nullptr;
  for (const DatasetRecord& r : records_) {
    if (std::fabs(r.read_voltage_v - v_read) > v_tolerance) continue;
    if (best == nullptr || r.read_energy_j < best->read_energy_j) {
      best = &r;
    }
  }
  if (best == nullptr) {
    throw std::invalid_argument(
        "CheapestReadAt: no record at requested read voltage");
  }
  return *best;
}

}  // namespace analognf::device
