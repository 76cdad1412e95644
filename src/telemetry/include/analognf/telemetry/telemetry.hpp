// The telemetry hub a data-plane component owns: one metrics registry
// plus one flight recorder, built from a single TelemetryConfig, with a
// DumpOnSignal-style one-call post-mortem dump.
#pragma once

#include <iosfwd>

#include "analognf/telemetry/flight_recorder.hpp"
#include "analognf/telemetry/metrics.hpp"

namespace analognf::telemetry {

class Telemetry {
 public:
  explicit Telemetry(TelemetryConfig config = {});

  bool enabled() const { return config_.enabled; }
  const TelemetryConfig& config() const { return config_; }

  MetricsRegistry& metrics() { return registry_; }
  const MetricsRegistry& metrics() const { return registry_; }
  FlightRecorder& recorder() { return recorder_; }
  const FlightRecorder& recorder() const { return recorder_; }

  // One-call post-mortem dump (the programmatic stand-in for a
  // dump-on-signal handler): the full Prometheus snapshot followed by
  // the last `max_records` flight-recorder records as JSON.
  void WritePostMortem(std::ostream& out, std::size_t max_records = 8) const;

 private:
  TelemetryConfig config_;
  MetricsRegistry registry_;
  FlightRecorder recorder_;
};

}  // namespace analognf::telemetry
