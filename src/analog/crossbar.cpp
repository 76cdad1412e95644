#include "analognf/analog/crossbar.hpp"

#include <algorithm>
#include <stdexcept>

namespace analognf::analog {

Crossbar::Crossbar(std::size_t rows, std::size_t cols,
                   const device::MemristorParams& params,
                   const device::DeviceVariation* variation,
                   std::uint64_t seed)
    : rows_(rows), cols_(cols) {
  if (rows == 0 || cols == 0) {
    throw std::invalid_argument("Crossbar: zero dimension");
  }
  params.Validate();
  cells_.reserve(rows * cols);
  analognf::RandomStream rng(seed);
  for (std::size_t i = 0; i < rows * cols; ++i) {
    device::MemristorParams cell_params =
        variation != nullptr ? variation->Apply(params, rng) : params;
    cells_.emplace_back(cell_params, /*initial_state=*/0.0);
  }
}

std::size_t Crossbar::Index(std::size_t row, std::size_t col) const {
  if (row >= rows_ || col >= cols_) {
    throw std::out_of_range("Crossbar: cell index out of range");
  }
  return row * cols_ + col;
}

device::Memristor& Crossbar::At(std::size_t row, std::size_t col) {
  return cells_[Index(row, col)];
}

void Crossbar::MultiplyInto(std::span<const double> row_voltages,
                            std::span<double> currents) {
  if (row_voltages.size() != rows_) {
    throw std::invalid_argument(
        "Crossbar::MultiplyInto: voltage size mismatch");
  }
  if (currents.size() != cols_) {
    throw std::invalid_argument(
        "Crossbar::MultiplyInto: current size mismatch");
  }
  std::fill(currents.begin(), currents.end(), 0.0);
  for (std::size_t r = 0; r < rows_; ++r) {
    const double v = row_voltages[r];
    if (v == 0.0) continue;
    for (std::size_t c = 0; c < cols_; ++c) {
      const device::Memristor& cell = cells_[r * cols_ + c];
      const double g = cell.ConductanceS();
      currents[c] += v * g;
      consumed_energy_j_ += v * v * g * cell.params().read_time_s;
    }
  }
}

}  // namespace analognf::analog
