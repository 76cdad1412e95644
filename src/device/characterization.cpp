#include "analognf/device/characterization.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace analognf::device {
namespace {

// Amplitude A of the sine drive [V].
constexpr double kAmplitudeV = 2.0;

}  // namespace

void HysteresisSweepConfig::Validate() const {
  // An infinite period makes every sample time inf * 0 = NaN.
  if (!std::isfinite(period_s) || !(period_s > 0.0)) {
    throw std::invalid_argument(
        "HysteresisSweepConfig: period not finite > 0");
  }
  if (cycles < 1 ||
      cycles > std::numeric_limits<int>::max() / kSamplesPerCycle) {
    throw std::invalid_argument(
        "HysteresisSweepConfig: cycles outside [1, INT_MAX / samples]");
  }
}

std::vector<IvPoint> TraceHysteresis(Memristor& device,
                                     const HysteresisSweepConfig& config) {
  config.Validate();
  const int total = config.cycles * config.kSamplesPerCycle;
  const double dt = config.period_s / config.kSamplesPerCycle;
  std::vector<IvPoint> trace;
  trace.reserve(static_cast<std::size_t>(total));
  for (int i = 0; i < total; ++i) {
    const double t = dt * i;
    const double v = kAmplitudeV *
                     std::sin(2.0 * M_PI * t / config.period_s);
    // Read first (instantaneous conductance), then let the sample's
    // drive interval drift the state.
    IvPoint point;
    point.time_s = t;
    point.voltage_v = v;
    point.current_a = device.ReadCurrentA(v);
    point.state = device.state();
    trace.push_back(point);
    device.ApplyPulse(v, dt);
  }
  return trace;
}

double LoopArea(const std::vector<IvPoint>& trace) {
  if (trace.size() < 3) return 0.0;
  double twice_area = 0.0;
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const IvPoint& a = trace[i];
    const IvPoint& b = trace[(i + 1) % trace.size()];
    twice_area += a.voltage_v * b.current_a - b.voltage_v * a.current_a;
  }
  return std::fabs(twice_area) / 2.0;
}

}  // namespace analognf::device
