// Open-loop link simulation: the Fig. 8 experiment harness.
//
// A MetaSource feeds the AQM-guarded bottleneck (sim::Bottleneck) with
// unresponsive arrivals, optionally changing its rate in scheduled
// phases. On top of the bottleneck's report core the simulator records
// the queue-depth and drop-probability traces the paper plots and per-
// priority delay summaries.
#pragma once

#include <cstdint>
#include <vector>

#include "analognf/aqm/aqm.hpp"
#include "analognf/aqm/controller.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/common/timeseries.hpp"
#include "analognf/net/generator.hpp"
#include "analognf/net/queue.hpp"
#include "analognf/sim/bottleneck.hpp"
#include "analognf/sim/event_queue.hpp"

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

  LinkConfig link() const {
    return {duration_s, warmup_s, link_rate_bps, queue};
  }
  void Validate() const;  // throws std::invalid_argument
};

struct SimReport {
  LinkReport link;  // the bottleneck's report core
  analognf::TimeSeries queue_depth{"queue_pkts"};
  analognf::TimeSeries drop_prob{"pdp"};  // policy PDP samples
  net::QueueStats queue_stats;
  // Post-warmup per-priority delays, beyond the core's summaries.
  analognf::RunningStats delay_stats_high_priority;
  analognf::RunningStats delay_stats_low_priority;
  std::uint64_t delivered_marked_packets = 0;
  double delivered_bytes = 0.0;

  // Delivered payload bits per second over the whole run, warmup
  // included.
  double ThroughputBps() const;
};

class QueueSimulator {
 public:
  // `controller` may be null (no adaptation). config.phases drive
  // source.SetRate.
  QueueSimulator(QueueSimConfig config, net::MetaSource& source,
                 aqm::AqmPolicy& policy,
                 aqm::CognitiveAqmController* controller = nullptr);
  // The bottleneck holds this simulator's calendar.
  QueueSimulator(const QueueSimulator&) = delete;
  QueueSimulator& operator=(const QueueSimulator&) = delete;

  // Runs the simulation once (the calendar does not rewind).
  SimReport Run();

 private:
  enum EventKind : std::uint32_t { kSample, kArrival, kDeparture };

  void OnArrival();
  void OnDeparture();
  void ScheduleNextArrival();
  void SampleDepth();

  QueueSimConfig config_;
  net::MetaSource& source_;
  aqm::AqmPolicy& policy_;
  aqm::CognitiveAqmController* controller_;

  EventQueue events_;
  Bottleneck link_;
  net::PacketMeta pending_arrival_;  // the one arrival on the calendar
  std::size_t next_phase_ = 0;
  SimReport report_;
};

}  // namespace analognf::sim
