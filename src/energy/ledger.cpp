#include "analognf/energy/ledger.hpp"

namespace analognf::energy {

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

CategoryTotal EnergyLedger::Of(const std::string& category) const {
  auto it = categories_.find(category);
  return it == categories_.end() ? CategoryTotal{} : it->second;
}

}  // namespace analognf::energy
