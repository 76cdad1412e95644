// Tabular report formatting for the benchmark harness.
//
// Every bench binary prints the paper's table/figure as `[REPRO]`-prefixed
// rows before running its google-benchmark timings; this formatter keeps
// those reports consistent.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace analognf {

// A simple column-aligned text table.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  // Adds a row; must have the same arity as the header.
  void AddRow(std::vector<std::string> row);

  std::size_t rows() const { return rows_.size(); }

  // Column-aligned rendering, each line prefixed with `prefix`
  // (e.g. "[REPRO] ").
  void Print(std::ostream& os, const std::string& prefix = "") const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

// Formats a double with the given significant digits (e.g. "0.01", "1.6e-17").
std::string FormatSig(double value, int significant_digits = 4);

// Formats an energy in joules with an adaptive SI suffix (aJ/fJ/pJ/nJ/uJ/J),
// e.g. 1.6e-17 -> "0.016 fJ". Presentation helper for the energy benches.
std::string FormatEnergy(double joules, int significant_digits = 3);

// Formats a duration in seconds with an adaptive SI suffix (ns/us/ms/s).
std::string FormatDuration(double seconds, int significant_digits = 3);

}  // namespace analognf
