// Device characterisation sweeps beyond the pulse dataset.
//
// The defining memristor signature (Chua 1971, cited in Sec. 2) is the
// pinched hysteresis loop: under a sinusoidal drive the I-V trajectory
// forms two lobes that always cross at the origin, because the device's
// conductance — its state — changes *while* being driven. These sweeps
// exist so the behavioural model can be validated against the canonical
// fingerprint, not just the energy numbers.
#pragma once

#include <vector>

#include "analognf/device/memristor.hpp"

namespace analognf::device {

struct IvPoint {
  double time_s = 0.0;
  double voltage_v = 0.0;
  double current_a = 0.0;
  double state = 0.0;
};

struct HysteresisSweepConfig {
  static constexpr int kSamplesPerCycle = 400;

  double period_s = 0.2;      // drive period T
  // At most INT_MAX / kSamplesPerCycle, so the sample count fits an int.
  int cycles = 1;

  void Validate() const;  // throws std::invalid_argument
};

// Drives the device with V(t) = A sin(2 pi t / T) at A = 2 V, integrating
// the state drift sample by sample, and records the I-V trajectory
// (kSamplesPerCycle points per cycle). Mutates the device state (that is
// the point).
std::vector<IvPoint> TraceHysteresis(Memristor& device,
                                     const HysteresisSweepConfig& config);

// Area enclosed by the I-V loop's upper/lower branches (shoelace over
// the trajectory). A resistor gives ~0; a memristor gives a finite
// lobe area that shrinks with drive frequency.
double LoopArea(const std::vector<IvPoint>& trace);

}  // namespace analognf::device
