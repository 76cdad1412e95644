// Cognitive network controller (Fig. 5, top block).
//
// "The splitting of network functions into the digital and analog
// domains requires a cognitive network controller. The controller
// programs the memristor-based pCAMs and TCAMs based upon the
// requirements of the network functions."
//
// This facade is that controller: network functions are registered with
// a precision requirement, the controller assigns each to the digital or
// analog domain (RQ2's precision-driven placement), and programs the
// switch's tables accordingly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analognf/arch/switch.hpp"

namespace analognf::arch {

// Reprograms every egress AQM of one switch for a new latency bound,
// through the same update_pCAM action the data-plane table exposes.
// Free-standing so the controller facade and the multi-port runtime's
// batch-boundary control commands (port_runtime.hpp) share one
// implementation. Must run on the thread that owns the switch's data
// plane (pCAM programming is single-writer).
void ProgramAqmTarget(CognitiveSwitch& data_plane, double target_delay_s,
                      double max_deviation_s);

// Where a network function executes.
enum class Domain { kDigital, kAnalog };

std::string ToString(Domain domain);

// A registered network function and its placement.
struct FunctionPlacement {
  std::string name;
  // Required output precision in equivalent bits. High-precision
  // functions (IP lookup, firewall) must stay digital; tolerant ones
  // (AQM, traffic analysis, load balancing) can go analog.
  unsigned required_precision_bits = 32;
  Domain domain = Domain::kDigital;
};

class CognitiveNetworkController {
 public:
  // Functions whose precision requirement is at or below this many bits
  // are placed in the analog domain. The default (10) reflects the
  // ~10-bit effective resolution of the DAC/pCAM path.
  explicit CognitiveNetworkController(CognitiveSwitch& data_plane,
                                      unsigned analog_precision_limit_bits = 10);

  // Registers a function and decides its domain. Returns the placement.
  FunctionPlacement Place(const std::string& name,
                          unsigned required_precision_bits);
  const std::vector<FunctionPlacement>& placements() const {
    return placements_;
  }

  // --- Digital-domain programming (TCAM) -------------------------------
  // Routes go straight to data_plane().AddRoute.
  void InstallFirewallDeny(const FirewallPattern& pattern,
                           std::int32_t priority);
  void InstallFirewallPermit(const FirewallPattern& pattern,
                             std::int32_t priority);

  // --- Analog-domain programming (pCAM, via update_pCAM) ---------------
  // Reprograms every port's AQM sojourn stage for a new latency bound.
  void ProgramAqmTarget(double target_delay_s, double max_deviation_s);

  CognitiveSwitch& data_plane() { return data_plane_; }

 private:
  CognitiveSwitch& data_plane_;
  unsigned analog_precision_limit_bits_;
  std::vector<FunctionPlacement> placements_;
};

}  // namespace analognf::arch
