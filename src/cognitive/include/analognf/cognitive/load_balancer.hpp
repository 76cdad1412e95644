// Cognitive load balancing (one of the analog network functions of
// Fig. 5): probabilistic backend selection over a pCAM table.
//
// Each backend (an egress port, a server, a link) stores one analog
// policy row over its *reported load* mapped onto a search voltage. A
// dispatch queries the table for the preferred load band; every row
// answers with an analog match degree at once, and the degrees weight
// the pick — lightly loaded backends draw proportionally more flows with
// zero per-flow digital bookkeeping. Reprogramming one row (update_pCAM)
// shifts traffic away from a hot backend without touching flow state.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "analognf/common/rng.hpp"
#include "analognf/core/pcam_array.hpp"

namespace analognf::cognitive {

struct LoadBalancerConfig {
  core::HardwarePcamConfig hardware{};
};

// Analog (pCAM-backed) load balancer over a fixed set of backends.
class AnalogLoadBalancer {
 public:
  // Every backend starts at load 0. Throws on zero backends.
  AnalogLoadBalancer(std::size_t backend_count,
                     LoadBalancerConfig config = {});

  std::size_t backends() const { return loads_.size(); }
  double load(std::size_t backend) const { return loads_.at(backend); }

  // Reports a backend's new load in [0, 1] and reprograms its stored
  // policy row (the update_pCAM action).
  void UpdateLoad(std::size_t backend, double load);

  // Flow-sticky pick: the analog match degrees against the preferred
  // load weight the backends, and the flow hash supplies the unit draw —
  // so one flow keeps its backend for as long as the stored loads are
  // unchanged (the ECMP property), while the *population* of flows
  // spreads by degree. nullopt if every degree is zero.
  std::optional<std::size_t> PickForFlow(std::uint64_t flow_hash);

  // Per-decision randomised pick (dispatcher-style; same weighting).
  std::optional<std::size_t> Pick(analognf::RandomStream& rng);

  // Per-backend degrees of the most recent pick (diagnostics).
  const std::vector<double>& last_degrees() const {
    return table_.last_degrees();
  }

  double ConsumedEnergyJ() const { return table_.ConsumedEnergyJ(); }
  const core::PcamTable& table() const { return table_; }

  // Binds the backing pCAM table's search engine to `<prefix>.*`
  // counters in `registry`.
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     const std::string& prefix) {
    table_.BindTelemetry(registry, prefix);
  }

 private:
  core::PcamTable table_;
  std::vector<double> loads_;
  std::vector<double> query_;
};

}  // namespace analognf::cognitive
