// Analog traffic analysis (one of the cognitive network functions in
// Fig. 5): classify flows by behavioural features using probabilistic
// pCAM matches.
//
// A FlowTracker maintains per-flow feature estimates (mean packet size,
// mean inter-arrival time, burstiness) online. The classifier stores one
// pCAM row per traffic class, each row matching a band in feature space;
// classification is a single analog table search whose *degree* output
// doubles as a confidence — exactly the partial-match capability RQ1
// argues digital TCAMs lack.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analognf/analog/signal.hpp"
#include "analognf/common/flow_table.hpp"
#include "analognf/core/pcam_array.hpp"
#include "analognf/net/generator.hpp"

namespace analognf::cognitive {

// Behavioural fingerprint of one flow.
struct FlowFeatures {
  double mean_packet_size_bytes = 0.0;
  double mean_interarrival_s = 0.0;
  // Coefficient of variation of the inter-arrival time (1 for Poisson,
  // higher for bursty traffic).
  double burstiness = 0.0;
  std::uint64_t packets = 0;
};

// Online per-flow feature extraction over a fixed-capacity SoA flow
// table (common/flow_table.hpp): no per-flow heap nodes, bounded memory,
// and incremental aging — when a probe window fills, the least recently
// seen collider is evicted (its flow restarts from zero if it reappears).
class FlowTracker {
 public:
  // `capacity` bounds the number of concurrently tracked flows (rounded
  // up to a power of two).
  explicit FlowTracker(
      std::size_t capacity = common::FlowTable<int>::kDefaultCapacity);

  void Observe(const net::PacketMeta& packet);

  // Features of a flow (zeroed FlowFeatures if never seen or evicted).
  FlowFeatures Features(std::uint64_t flow_hash) const;

  // Batched hot path: hashes every flow key up front with the SIMD
  // dispatch layer, then updates each flow in packet order. features[i]
  // is exactly what Observe(packets[i]) followed by
  // Features(packets[i].flow_hash) would have returned at that point in
  // the sequence (the differential test pins this).
  void ObserveBatch(const net::PacketMeta* packets, std::size_t count,
                    FlowFeatures* features);

  std::size_t flows() const { return table_.size(); }
  std::size_t capacity() const { return table_.capacity(); }
  // Flows aged out of full probe windows since construction.
  std::uint64_t evictions() const { return table_.evictions(); }

 private:
  // Only the Welford moments FeaturesOf reads (48 B, so a 16 384-slot
  // table fits in 1.06 MB): packet-size count and mean, inter-arrival
  // gap count, mean and sum of squared deviations.
  struct FlowState {
    double last_arrival_s = 0.0;
    std::uint64_t size_count = 0;  // 0: no packet seen yet
    double size_mean = 0.0;
    std::uint64_t gap_count = 0;
    double gap_mean = 0.0;
    double gap_m2 = 0.0;
  };
  static_assert(sizeof(FlowState) == 48);

  static void ObserveInto(FlowState& state, const net::PacketMeta& packet);
  static FlowFeatures FeaturesOf(const FlowState& state);

  common::FlowTable<FlowState> table_;
  // Batch scratch (key gather + hash lanes), reused across calls.
  std::vector<std::uint64_t> key_scratch_;
  std::vector<std::uint64_t> hash_scratch_;
};

// Result of classifying one flow.
struct Classification {
  std::string label;
  std::size_t class_index = 0;
  double confidence = 0.0;  // analog match degree in [0, 1]
};

// Plain-data outcome for the in-pipeline batch path: no label string on
// the hot path (class_index keys the stage's own bookkeeping) and the
// per-query search energy carried alongside so the stage can commit it
// to the canonical ledger without an energy-counter round trip.
struct ClassifyOutcome {
  std::int32_t class_index = -1;  // -1: no class above min_confidence
  double confidence = 0.0;
  double energy_j = 0.0;  // whole-array search energy for this query
};

// pCAM-backed classifier over (packet size, inter-arrival, burstiness).
class AnalogTrafficClassifier {
 public:
  struct ClassSpec {
    std::string label;
    // Feature bands: [lo, hi] deterministic-match windows; the skirt
    // fraction widens each band probabilistically.
    double size_lo_bytes, size_hi_bytes;
    double iat_lo_s, iat_hi_s;
    double burst_lo, burst_hi;
  };

  explicit AnalogTrafficClassifier(
      core::HardwarePcamConfig hardware = {},
      double skirt_fraction = 0.5);

  // Registers a class; returns its index.
  std::size_t AddClass(const ClassSpec& spec);
  std::size_t classes() const { return labels_.size(); }

  // Classifies a feature vector. nullopt if no class matches with a
  // degree above `min_confidence`.
  std::optional<Classification> Classify(const FlowFeatures& features,
                                         double min_confidence = 0.0);

  // Allocation-free batch path: quantises all features into one flat
  // SIMD-friendly query block, runs one batched pCAM search, and fills
  // `out` (cleared, then one entry per input — energy is reported even
  // for below-confidence queries, since the array still searched). The
  // in-pipeline traffic-class stage calls this with long-lived scratch.
  void ClassifyBatchInto(const FlowFeatures* features, std::size_t count,
                         double min_confidence,
                         std::vector<ClassifyOutcome>& out);

  // Label of a registered class (index from ClassifyOutcome).
  const std::string& label(std::size_t class_index) const {
    return labels_.at(class_index);
  }

  double ConsumedEnergyJ() const { return table_.ConsumedEnergyJ(); }

  // Binds the backing pCAM table's search engine to `<prefix>.*`
  // counters in `registry`.
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     const std::string& prefix) {
    table_.BindTelemetry(registry, prefix);
  }

 private:
  double skirt_fraction_;
  analog::LinearMap size_map_;
  analog::LinearMap iat_map_;   // log10(inter-arrival) onto volts
  analog::LinearMap burst_map_;
  core::PcamTable table_;
  std::vector<std::string> labels_;
  // Batch scratch, reused across ClassifyBatchInto calls.
  std::vector<double> query_scratch_;
  std::vector<core::PcamTableResult> result_scratch_;
};

}  // namespace analognf::cognitive
