// Memristor crossbar array: analog vector-matrix multiplication.
//
// The crossbar is the canonical in-memory-computing substrate the paper's
// architecture builds on (Sec. 2, "built upon the principles of in-memory
// computing"): row voltages applied across a grid of programmed
// conductances produce per-column currents I_j = sum_i V_i * G_ij in one
// analog step, with computation colocalised with storage. The pCAM's
// stored-policy reads and the cognitive feature projections both reduce
// to this primitive, and Fig. 1's colocalisation energy argument is
// benchmarked against it.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "analognf/common/rng.hpp"
#include "analognf/device/memristor.hpp"

namespace analognf::analog {

// A rows x cols crossbar of memristors. Row index = input line,
// column index = output line.
class Crossbar {
 public:
  // All cells start from `params` at state 0 (HRS). If `variation` is
  // non-null, per-cell device-to-device variation is drawn from `seed`.
  Crossbar(std::size_t rows, std::size_t cols,
           const device::MemristorParams& params,
           const device::DeviceVariation* variation = nullptr,
           std::uint64_t seed = 0xc705ba5);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  // The cell at (row, col); callers program it through the Memristor
  // API (SetResistance, SetState).
  device::Memristor& At(std::size_t row, std::size_t col);

  // One analog evaluation: applies `row_voltages` (size rows) and
  // writes the cols column currents into a caller-owned `currents`
  // (size cols), so a per-packet caller never allocates. Accumulates the
  // dissipated energy (sum over cells of V_i^2 * G_ij * read_time) into
  // the internal meter.
  void MultiplyInto(std::span<const double> row_voltages,
                    std::span<double> currents);

  // Energy dissipated by all MultiplyInto() calls since the last ResetEnergy.
  double ConsumedEnergyJ() const { return consumed_energy_j_; }
  void ResetEnergy() { consumed_energy_j_ = 0.0; }

 private:
  std::size_t Index(std::size_t row, std::size_t col) const;

  std::size_t rows_;
  std::size_t cols_;
  std::vector<device::Memristor> cells_;
  double consumed_energy_j_ = 0.0;
};

}  // namespace analognf::analog
