#include "analognf/arch/controller.hpp"

namespace analognf::arch {

std::string ToString(Domain domain) {
  return domain == Domain::kDigital ? "digital" : "analog";
}

CognitiveNetworkController::CognitiveNetworkController(
    CognitiveSwitch& data_plane, unsigned analog_precision_limit_bits)
    : data_plane_(data_plane),
      analog_precision_limit_bits_(analog_precision_limit_bits) {}

FunctionPlacement CognitiveNetworkController::Place(
    const std::string& name, unsigned required_precision_bits) {
  FunctionPlacement placement;
  placement.name = name;
  placement.required_precision_bits = required_precision_bits;
  placement.domain = required_precision_bits <= analog_precision_limit_bits_
                         ? Domain::kAnalog
                         : Domain::kDigital;
  placements_.push_back(placement);
  return placement;
}

void CognitiveNetworkController::InstallFirewallDeny(
    const FirewallPattern& pattern, std::int32_t priority) {
  data_plane_.AddFirewallRule(pattern, /*permit=*/false, priority);
}

void CognitiveNetworkController::InstallFirewallPermit(
    const FirewallPattern& pattern, std::int32_t priority) {
  data_plane_.AddFirewallRule(pattern, /*permit=*/true, priority);
}

void ProgramAqmTarget(CognitiveSwitch& data_plane, double target_delay_s,
                      double max_deviation_s) {
  for (std::size_t p = 0; p < data_plane.port_count(); ++p) {
    for (std::size_t sc = 0; sc < data_plane.service_classes(); ++sc) {
      aqm::AnalogAqm* port_aqm = data_plane.port_aqm(p, sc);
      if (port_aqm == nullptr) return;  // enable_aqm = false: tail drop
      // A band that clamps to one rail leaves the port's program as is.
      port_aqm->ProgramBand(target_delay_s - max_deviation_s,
                            target_delay_s + max_deviation_s);
    }
  }
}

void CognitiveNetworkController::ProgramAqmTarget(double target_delay_s,
                                                  double max_deviation_s) {
  arch::ProgramAqmTarget(data_plane_, target_delay_s, max_deviation_s);
}

}  // namespace analognf::arch
