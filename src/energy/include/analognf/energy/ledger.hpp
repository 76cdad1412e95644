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
  // Adds `energy_j` joules under `category`, counting `operations` ops.
  // energy_j must be non-negative.
  void Record(const std::string& category, double energy_j,
              std::uint64_t operations = 1);

  // Stable pointer to a category's running total, so batched hot paths
  // can accumulate per-packet contributions without the per-call string
  // lookup of Record(). The pointer stays valid for the ledger's
  // lifetime. Callers must uphold the Record() precondition
  // (non-negative energy).
  CategoryTotal* Meter(const std::string& category);

  // Total across all categories.
  double TotalJ() const;
  std::uint64_t TotalOperations() const;

  // Per-category lookup; zero-initialised total for unknown categories.
  CategoryTotal Of(const std::string& category) const;
  // Fraction of the total attributable to `category` (0 if total is 0).
  double FractionOf(const std::string& category) const;

  const std::map<std::string, CategoryTotal>& categories() const {
    return categories_;
  }

  // Folds another ledger into this one.
  void Merge(const EnergyLedger& other);

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
inline constexpr const char* kAdcConvert = "analog.adc";
inline constexpr const char* kProgramming = "device.programming";
inline constexpr const char* kStorageRead = "digital.storage";
}  // namespace category

}  // namespace analognf::energy
