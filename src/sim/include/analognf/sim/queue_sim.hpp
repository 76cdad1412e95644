// Single-queue link simulation: the Fig. 8 experiment harness.
//
// A MetaSource feeds a FIFO queue drained by a fixed-rate link.
// An AQM policy sees every admission (enqueue hook) and every head
// departure (dequeue hook). The simulator records the delay-versus-time
// trace the paper plots, plus queue depth, drop-probability samples and
// the AQM's energy account.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "analognf/aqm/aqm.hpp"
#include "analognf/aqm/controller.hpp"
#include "analognf/common/quantile.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/common/timeseries.hpp"
#include "analognf/net/generator.hpp"
#include "analognf/net/queue.hpp"
#include "analognf/sim/event_queue.hpp"
#include "analognf/telemetry/metrics.hpp"

namespace analognf::sim {

// A scheduled offered-load change (the congestion phases of Fig. 8):
// the simulator calls MetaSource::SetRate when the phase starts.
struct RatePhase {
  double start_s = 0.0;
  double rate_pps = 0.0;
};

struct QueueSimConfig {
  double duration_s = 20.0;
  // Samples before this time are excluded from the summary statistics
  // (they still appear in the traces).
  double warmup_s = 2.0;
  double link_rate_bps = 10.0e6;
  net::PacketQueue::Config queue{};
  std::vector<RatePhase> phases;
  // Queue-depth sampling period for the depth trace.
  double sample_interval_s = 0.02;

  void Validate() const;  // throws std::invalid_argument
};

struct SimReport {
  analognf::TimeSeries delay{"sojourn_s"};        // per delivered packet
  analognf::TimeSeries queue_depth{"queue_pkts"};
  analognf::TimeSeries drop_prob{"pdp"};          // policy PDP samples
  net::QueueStats queue_stats;
  // Post-warmup summaries.
  analognf::RunningStats delay_stats;
  // Streaming p99 of post-warmup delays (P-square; O(1) memory even on
  // very long runs).
  analognf::P2Quantile delay_p99{0.99};
  analognf::RunningStats delay_stats_high_priority;
  analognf::RunningStats delay_stats_low_priority;
  std::uint64_t offered_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t ecn_marked_packets = 0;
  std::uint64_t delivered_marked_packets = 0;
  // Post-warmup deliveries per flow (keyed by flow_hash): the open-loop
  // analogue of the closed loop's per-source goodput, for Jain fairness
  // in the experiment grid.
  std::map<std::uint64_t, std::uint64_t> delivered_by_flow;
  double delivered_bytes = 0.0;
  double duration_s = 0.0;
  double warmup_s = 0.0;
  double aqm_energy_j = 0.0;

  double DropRate() const;        // all drops / offered
  double ThroughputBps() const;   // delivered payload bits per second
  // Fraction of post-warmup delay samples within [lo, hi] seconds — the
  // "delays kept within the programmed latency bounds" metric.
  double DelayFractionWithin(double lo_s, double hi_s) const;
  // Jain's fairness index over per-flow post-warmup deliveries
  // (1 = perfectly fair; 0 when nothing was delivered post-warmup).
  double FlowFairnessIndex() const;
};

// Registry handles a bound QueueSimulator reports into (`sim.*` names).
struct SimTelemetry {
  telemetry::CounterHandle offered;      // packets the source produced
  telemetry::CounterHandle delivered;    // packets that left the link
  telemetry::HistogramHandle sojourn_us; // per-delivery sojourn [µs]
  telemetry::GaugeHandle queue_depth;    // occupancy at sample instants
};

class QueueSimulator {
 public:
  // `controller` may be null (no adaptation). config.phases drive
  // source.SetRate.
  QueueSimulator(QueueSimConfig config, net::MetaSource& source,
                 aqm::AqmPolicy& policy,
                 aqm::CognitiveAqmController* controller = nullptr);

  // Binds `sim.offered/.delivered` counters, the `sim.sojourn_us`
  // histogram and the `sim.queue_depth` gauge. Telemetry never changes
  // the simulation: the report and traces are byte-identical either way.
  void BindTelemetry(telemetry::MetricsRegistry& registry);
  const SimTelemetry& telemetry() const { return telemetry_; }

  SimReport Run();

 private:
  enum EventKind : std::uint32_t { kSample, kArrival, kDeparture };

  void OnArrival();
  void StartServiceIfIdle();
  void OnDeparture();
  void ScheduleNextArrival();
  void SampleDepth();
  void SamplePdp();

  QueueSimConfig config_;
  net::MetaSource& source_;
  aqm::AqmPolicy& policy_;
  aqm::CognitiveAqmController* controller_;

  EventQueue events_;
  net::PacketMeta pending_arrival_;  // the one arrival on the calendar
  net::PacketQueue queue_;
  bool server_busy_ = false;
  std::size_t next_phase_ = 0;
  SimReport report_;
  SimTelemetry telemetry_;
};

}  // namespace analognf::sim
