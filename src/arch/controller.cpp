#include "analognf/arch/controller.hpp"

#include "analognf/analog/signal.hpp"
#include "analognf/core/pcam_cell.hpp"

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
    for (std::size_t sc = 0;; ++sc) {
      aqm::AnalogAqm* port_aqm = nullptr;
      try {
        port_aqm = data_plane.port_aqm(p, sc);
      } catch (const std::out_of_range&) {
        break;  // past the last service class
      }
      if (port_aqm == nullptr) break;
      const aqm::AnalogAqmConfig& c = port_aqm->config();
      // Reprogram the sojourn base stage for the new bound, through the
      // same update_pCAM action the data-plane table exposes. The feature
      // voltage map is fixed at construction; targets outside the original
      // domain clamp at the rails.
      const double domain_hi = 2.0 * (c.target_delay_s + c.max_deviation_s);
      const analog::LinearMap map(0.0, domain_hi, c.feature_range);
      const double v_lo = map.ToVoltage(target_delay_s - max_deviation_s);
      const double v_hi = map.ToVoltage(target_delay_s + max_deviation_s);
      if (!(v_lo < v_hi)) continue;
      const double v_max = c.feature_range.hi_v;
      port_aqm->table().UpdatePcam(
          "sojourn_time",
          core::PcamParams::MakeTrapezoid(v_lo, v_hi, v_max + 0.5,
                                          v_max + 1.0, 1.0, 0.0));
    }
  }
}

void CognitiveNetworkController::ProgramAqmTarget(double target_delay_s,
                                                  double max_deviation_s) {
  arch::ProgramAqmTarget(data_plane_, target_delay_s, max_deviation_s);
}

}  // namespace analognf::arch
