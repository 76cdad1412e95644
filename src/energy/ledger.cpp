#include "analognf/energy/ledger.hpp"

#include <stdexcept>

namespace analognf::energy {

void EnergyLedger::Record(const std::string& category, double energy_j,
                          std::uint64_t operations) {
  if (energy_j < 0.0) {
    throw std::invalid_argument("EnergyLedger::Record: negative energy");
  }
  CategoryTotal& total = categories_[category];
  total.energy_j += energy_j;
  total.operations += operations;
}

CategoryTotal* EnergyLedger::Meter(const std::string& category) {
  // std::map nodes are reference-stable across inserts, and no entry is
  // ever erased.
  return &categories_[category];
}

double EnergyLedger::TotalJ() const {
  double total = 0.0;
  for (const auto& [name, cat] : categories_) total += cat.energy_j;
  return total;
}

std::uint64_t EnergyLedger::TotalOperations() const {
  std::uint64_t total = 0;
  for (const auto& [name, cat] : categories_) total += cat.operations;
  return total;
}

CategoryTotal EnergyLedger::Of(const std::string& category) const {
  auto it = categories_.find(category);
  return it == categories_.end() ? CategoryTotal{} : it->second;
}

double EnergyLedger::FractionOf(const std::string& category) const {
  const double total = TotalJ();
  if (total <= 0.0) return 0.0;
  return Of(category).energy_j / total;
}

void EnergyLedger::Merge(const EnergyLedger& other) {
  for (const auto& [name, cat] : other.categories_) {
    CategoryTotal& total = categories_[name];
    total.energy_j += cat.energy_j;
    total.operations += cat.operations;
  }
}

}  // namespace analognf::energy
