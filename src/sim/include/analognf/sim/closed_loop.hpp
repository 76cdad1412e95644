// Closed-loop simulation: AIMD (TCP-like) sources reacting to the AQM.
//
// The open-loop Poisson experiments reproduce the paper's Fig. 8; this
// harness adds what a deployed AQM actually faces — congestion-
// controlled senders. Each source paces packets at cwnd/RTT; a delivered
// packet acks after RTT/2 and grows the window (additive increase,
// 1/cwnd per ack); a drop or an ECN CE mark halves it (multiplicative
// decrease, at most once per RTT). This is the workload where ECN
// marking genuinely sheds load without losing packets, and where
// CoDel's design assumptions hold. The sources share the open loop's
// AQM-guarded bottleneck (sim::Bottleneck).
#pragma once

#include <cstdint>
#include <vector>

#include "analognf/aqm/aqm.hpp"
#include "analognf/common/timeseries.hpp"
#include "analognf/net/queue.hpp"
#include "analognf/sim/bottleneck.hpp"
#include "analognf/sim/event_queue.hpp"

namespace analognf::sim {

struct ClosedLoopConfig {
  std::size_t sources = 8;
  // Two-way propagation delay per source (excludes queueing).
  double base_rtt_s = 0.040;
  std::uint32_t segment_bytes = 1000;
  // Fraction of sources that negotiate ECN.
  double ecn_fraction = 0.0;
  double duration_s = 20.0;
  double warmup_s = 5.0;
  double link_rate_bps = 10.0e6;
  net::PacketQueue::Config queue{};

  LinkConfig link() const {
    return {duration_s, warmup_s, link_rate_bps, queue};
  }
  void Validate() const;  // throws std::invalid_argument
};

struct ClosedLoopReport {
  // The bottleneck's report core; its flows are the sources, each one
  // counted from the start.
  LinkReport link;
  analognf::TimeSeries total_cwnd{"cwnd_pkts"};

  // Jain's fairness index over per-source post-warmup goodput.
  double FairnessIndex() const;
  // Post-warmup goodput as a fraction of link capacity, capped at 1.0
  // (warmup-boundary effects can push the raw ratio slightly over).
  double LinkUtilization(double link_rate_bps,
                         std::uint32_t segment_bytes) const;
};

class ClosedLoopSimulator {
 public:
  ClosedLoopSimulator(ClosedLoopConfig config, aqm::AqmPolicy& policy);
  // The bottleneck holds this simulator's calendar.
  ClosedLoopSimulator(const ClosedLoopSimulator&) = delete;
  ClosedLoopSimulator& operator=(const ClosedLoopSimulator&) = delete;

  // Runs the simulation once (the calendar does not rewind).
  ClosedLoopReport Run();

 private:
  struct Source {
    double cwnd = 2.0;  // the initial window [segments]
    bool ecn = false;
    double next_send_s = 0.0;
    // Multiplicative decrease is applied at most once per RTT.
    double decrease_blocked_until_s = 0.0;
  };

  // Event kinds; `arg` is the source index (kAck: index << 1 | CE mark).
  enum EventKind : std::uint32_t { kSample, kSend, kDeparture, kAck, kLoss };

  void SampleCwnd();
  void SendFrom(std::size_t source);
  void ScheduleSend(std::size_t source);
  void OnDeparture();
  void OnAck(std::size_t source, bool congestion_signal, double now_s);
  void Decrease(std::size_t source, double now_s);

  ClosedLoopConfig config_;
  EventQueue events_;
  Bottleneck link_;
  std::vector<Source> sources_;
  std::uint64_t next_packet_id_ = 0;
  ClosedLoopReport report_;
};

}  // namespace analognf::sim
