// Energy accounting across the packet-processing architecture.
//
// RQ3 asks for "an elaborate study on the energy consumption of these
// computations". Every energy-consuming component (TCAM searches, pCAM
// searches, DAC conversions, SRAM reads, data movement) reports into a
// ledger keyed by category, so experiments can break a workload's budget
// down the way Fig. 1 does.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace analognf::energy {

// One category's accumulated consumption.
struct CategoryTotal {
  double energy_j = 0.0;
  std::uint64_t operations = 0;
};

class EnergyLedger {
 public:
  // Stable pointer to a category's running total (created at zero), so
  // batched hot paths accumulate per-packet contributions without a
  // per-call string lookup. The pointer stays valid for the ledger's
  // lifetime. Callers add non-negative energy only.
  CategoryTotal* Meter(const std::string& category);

  // Total across all categories.
  double TotalJ() const;

  // Per-category lookup; zero-initialised total for unknown categories.
  CategoryTotal Of(const std::string& category) const;

  const std::map<std::string, CategoryTotal>& categories() const {
    return categories_;
  }

 private:
  std::map<std::string, CategoryTotal> categories_;
};

// Canonical category names used across the library, so reports line up.
namespace category {
inline constexpr const char* kTcamSearch = "tcam.search";
inline constexpr const char* kPcamSearch = "pcam.search";
inline constexpr const char* kDataMovement = "digital.movement";
inline constexpr const char* kDigitalCompute = "digital.compute";
inline constexpr const char* kDacConvert = "analog.dac";
inline constexpr const char* kProgramming = "device.programming";
}  // namespace category

}  // namespace analognf::energy
