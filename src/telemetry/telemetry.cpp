#include "analognf/telemetry/telemetry.hpp"

#include <ostream>

#include "analognf/telemetry/export.hpp"

namespace analognf::telemetry {

Telemetry::Telemetry(TelemetryConfig config)
    : config_(config),
      registry_(config_),
      recorder_(config_.enabled ? config_.flight_recorder_capacity : 0) {}

void Telemetry::WritePostMortem(std::ostream& out,
                                std::size_t max_records) const {
  out << "# ---- metrics snapshot (Prometheus text format) ----\n";
  out << ToPrometheusText(registry_.Snapshot());
  out << "# ---- flight recorder (last " << max_records << " batches) ----\n";
  out << ToJson(recorder_.Dump(max_records));
}

}  // namespace analognf::telemetry
