#include "analognf/core/pcam_hardware.hpp"

#include <cmath>
#include <stdexcept>

namespace analognf::core {
namespace {

// Programming pulse used when (re)writing a threshold. Amplitude and
// width are in the Nb:SrTiO3 operating regime; the exact values only
// affect the programming-energy account, not the data path.
constexpr double kProgramPulseV = 2.0;
constexpr double kProgramPulseWidthS = 1.0e-3;

device::MemristorParams MakeCellDevice(const HardwarePcamConfig& config,
                                       analognf::RandomStream& rng) {
  if (config.apply_device_variation) {
    return device::DeviceVariation{}.Apply(config.device, rng);
  }
  return config.device;
}

}  // namespace

void HardwarePcamConfig::Validate() const {
  device.Validate();
  channel.Validate();
  if (state_levels < 2) {
    throw std::invalid_argument("HardwarePcamConfig: state_levels < 2");
  }
}

HardwarePcamCell::HardwarePcamCell(const PcamParams& target,
                                   HardwarePcamConfig config)
    : config_([&] {
        config.Validate();
        return config;
      }()),
      quantizer_(0.0, 1.0, config_.state_levels),
      low_([&] {
        analognf::RandomStream rng(config_.seed);
        return device::Memristor(MakeCellDevice(config_, rng));
      }()),
      high_([&] {
        analognf::RandomStream rng(config_.seed ^ 0x5a5a5a5aULL);
        return device::Memristor(MakeCellDevice(config_, rng));
      }()),
      target_(target),
      effective_(target),  // placeholder; Reprogram() sets the real one
      channel_(config_.channel, analognf::RandomStream(config_.seed ^ 0xc4)) {
  target.Validate();
  Reprogram(target);
}

double HardwarePcamCell::SnapThreshold(double threshold_v,
                                       device::Memristor& dev) {
  // Normalise the threshold into [0,1] over the input range, snap to the
  // device's state ladder, program the device there.
  const double t = kPcamInputRange.Normalize(threshold_v);
  const double snapped_t = quantizer_.Quantize(t);
  dev.SetState(snapped_t);
  program_energy_j_ += dev.ProgramEnergyJ(kProgramPulseV, kProgramPulseWidthS);
  return kPcamInputRange.Denormalize(snapped_t);
}

void HardwarePcamCell::Reprogram(const PcamParams& target) {
  target.Validate();
  target_ = target;

  const double skirt_a = target.m2 - target.m1;
  const double skirt_b = target.m4 - target.m3;

  PcamParams snapped = target;
  snapped.m2 = SnapThreshold(target.m2, low_);
  snapped.m3 = SnapThreshold(target.m3, high_);
  // Device quantisation can collapse the window ordering; the physical
  // cell cannot store m2 > m3, so push the high bound up one step.
  if (snapped.m2 > snapped.m3) snapped.m3 = snapped.m2;
  snapped.m1 = snapped.m2 - skirt_a;
  snapped.m4 = snapped.m3 + skirt_b;
  // Preserve the programmed slopes (they live in the sense amp, not the
  // devices); rails likewise.
  effective_.Program(snapped);
  conductance_sum_s_ = low_.ConductanceS() + high_.ConductanceS();
}

void HardwarePcamCell::Program(const PcamParams& target) {
  Reprogram(target);
}

void HardwarePcamCell::Age(double dt_s) {
  low_.Relax(dt_s);
  high_.Relax(dt_s);
  // Re-derive the realised transfer function from the decayed device
  // states; the skirt widths and rails live in the sense amp and are
  // unaffected by retention.
  PcamParams aged = effective_.params();
  const double skirt_a = aged.m2 - aged.m1;
  const double skirt_b = aged.m4 - aged.m3;
  aged.m2 = kPcamInputRange.Denormalize(low_.state());
  aged.m3 = kPcamInputRange.Denormalize(high_.state());
  if (aged.m2 > aged.m3) aged.m3 = aged.m2;
  aged.m1 = aged.m2 - skirt_a;
  aged.m4 = aged.m3 + skirt_b;
  effective_.Program(aged);
  conductance_sum_s_ = low_.ConductanceS() + high_.ConductanceS();
}

double HardwarePcamCell::SearchEnergyJ(double input_v) const {
  return input_v * input_v * conductance_sum_s_ * config_.device.read_time_s;
}

PcamEvalResult HardwarePcamCell::Evaluate(double input_v) {
  const double line_v = channel_.Transmit(input_v);
  PcamEvalResult result;
  result.energy_j = SearchEnergyJ(line_v);
  result.output = effective_.Evaluate(line_v);
  result.region = effective_.RegionOf(line_v);
  search_energy_j_ += result.energy_j;
  ++searches_;
  return result;
}

}  // namespace analognf::core
