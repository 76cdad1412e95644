#include "analognf/common/table.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace analognf {

Table::Table(std::vector<std::string> header) : header_(std::move(header)) {
  if (header_.empty()) {
    throw std::invalid_argument("Table requires at least one column");
  }
}

void Table::AddRow(std::vector<std::string> row) {
  if (row.size() != header_.size()) {
    throw std::invalid_argument("Table row arity does not match header");
  }
  rows_.push_back(std::move(row));
}

void Table::Print(std::ostream& os, const std::string& prefix) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    os << prefix;
    for (std::size_t c = 0; c < row.size(); ++c) {
      os << row[c];
      if (c + 1 < row.size()) {
        os << std::string(widths[c] - row[c].size() + 2, ' ');
      }
    }
    os << '\n';
  };
  print_row(header_);
  std::vector<std::string> rule;
  rule.reserve(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    rule.push_back(std::string(widths[c], '-'));
  }
  print_row(rule);
  for (const auto& row : rows_) print_row(row);
}

std::string FormatSig(double value, int significant_digits) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*g", significant_digits, value);
  return buf;
}

namespace {

struct Scale {
  double factor;
  const char* suffix;
};

// Picks the largest scale whose mantissa stays at or above
// `min_mantissa`. Energy uses min_mantissa = 0.01 so the paper's idiom
// ("0.01 fJ", "0.16 nJ") comes out verbatim; durations use 1.0 ("20 ms").
std::string FormatScaled(double value, int sig, const Scale* scales,
                         std::size_t n, double min_mantissa) {
  const double mag = std::fabs(value);
  std::size_t pick = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (mag / scales[i].factor >= min_mantissa) pick = i;
  }
  return FormatSig(value / scales[pick].factor, sig) + " " +
         scales[pick].suffix;
}

}  // namespace

std::string FormatEnergy(double joules, int significant_digits) {
  static constexpr Scale kScales[] = {
      {1e-15, "fJ"}, {1e-12, "pJ"}, {1e-9, "nJ"}, {1e-6, "uJ"}, {1.0, "J"},
  };
  return FormatScaled(joules, significant_digits, kScales,
                      std::size(kScales), 0.01);
}

std::string FormatDuration(double seconds, int significant_digits) {
  static constexpr Scale kScales[] = {
      {1e-9, "ns"}, {1e-6, "us"}, {1e-3, "ms"}, {1.0, "s"},
  };
  return FormatScaled(seconds, significant_digits, kScales,
                      std::size(kScales), 1.0);
}

}  // namespace analognf
