// The AQM-guarded bottleneck both simulators drive: one FIFO in front
// of a fixed-rate link.
//
// QueueSimulator (open-loop MetaSource arrivals, the Fig. 8 workload)
// and ClosedLoopSimulator (AIMD sources) differ only in their traffic.
// Each keeps its own event loop and event kinds; this component owns
// what they share: the link, its departure calendar and the report
// core, on top of one aqm::AqmQueue (the same AQM-guarded queue the
// switch's traffic manager uses for every egress class).
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "analognf/aqm/aqm.hpp"
#include "analognf/aqm/aqm_queue.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/common/timeseries.hpp"
#include "analognf/net/queue.hpp"
#include "analognf/sim/event_queue.hpp"

namespace analognf::sim {

// The bottleneck's settings, as both simulator configs carry them.
struct LinkConfig {
  double duration_s = 0.0;
  // Deliveries before this time stay out of the post-warmup summaries
  // (they still appear in the delay trace).
  double warmup_s = 0.0;
  double link_rate_bps = 0.0;
  net::PacketQueue::Config queue{};

  // Throws std::invalid_argument unless duration and link rate are
  // finite and positive and warmup lies in [0, duration). NaN fails.
  void Validate() const;
};

// What the bottleneck reports, the same for both simulators.
struct LinkReport {
  analognf::TimeSeries delay{"sojourn_s"};  // per delivered packet
  analognf::RunningStats delay_stats;       // post-warmup
  std::uint64_t offered_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t dropped_packets = 0;  // AQM (admission + head) and tail
  // CE marks set at admission; a marked packet that the full queue then
  // tail-drops counts here and in dropped_packets.
  std::uint64_t marked_packets = 0;
  // Packets still queued when the run ended. Conservation holds exactly:
  // offered == delivered + dropped + residual.
  std::uint64_t residual_packets = 0;
  // Post-warmup deliveries per flow: (flow_hash, count) sorted by
  // flow_hash. A flat array: the delivery path searches it per packet.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> delivered_by_flow;
  double duration_s = 0.0;
  double warmup_s = 0.0;

  double DropRate() const;  // all drops / offered
  // Fraction of post-warmup delay samples within [lo, hi] seconds — the
  // "delays kept within the programmed latency bounds" metric.
  double DelayFractionWithin(double lo_s, double hi_s) const;
  // Jain's fairness index over the per-flow post-warmup deliveries, each
  // divided by `per` (1 = perfectly fair; 0 when nothing was delivered
  // post-warmup). The index is scale-free; `per` only sets the unit the
  // sums round in (the closed loop indexes goodput: per = measured s).
  double FairnessIndex(double per = 1.0) const;
};

class Bottleneck {
 public:
  // Validates `config`. Departures go on `events` as `departure_kind`
  // events, which the owning simulator answers with Depart().
  Bottleneck(const LinkConfig& config, aqm::AqmPolicy& policy,
             EventQueue& events, std::uint32_t departure_kind);

  // Offers `packet` now to the AQM-guarded queue (which drops, marks or
  // enqueues it) and starts service if the link is idle. Returns false
  // when the packet was dropped (by the policy or by a full queue).
  bool Offer(const net::PacketMeta& packet);

  // Serves the departure due now: dequeues the head through the queue's
  // head-drop loop (on_drop(meta) runs for each packet the policy
  // discards; the next packet takes the same service slot). Then
  // delivers the survivor, calls on_deliver(delivered) and starts the
  // next service. Does nothing more once the queue has run dry.
  template <class OnDrop, class OnDeliver>
  void Depart(OnDrop&& on_drop, OnDeliver&& on_deliver) {
    const double now = events_.now();
    busy_ = false;
    const auto head = queue_.Dequeue(now, on_drop);
    if (!head.has_value()) return;
    Deliver(*head, now);
    on_deliver(*head);
    StartServiceIfIdle();
  }

  // Counts `flow` in the fairness index from the start, so a flow that
  // delivers nothing post-warmup scores 0 instead of leaving the index.
  void AddFlow(std::uint64_t flow) { DeliveriesOf(flow); }

  const net::PacketQueue& queue() const { return queue_.queue(); }

  // Closes the run: fills drops, marks and residual from the queue and
  // hands the report over.
  LinkReport TakeReport();

 private:
  // The flow's post-warmup delivery count, inserted at 0 if new.
  std::uint64_t& DeliveriesOf(std::uint64_t flow);
  void Deliver(const net::DequeuedPacket& delivered, double now);
  void StartServiceIfIdle();

  LinkConfig config_;
  EventQueue& events_;
  std::uint32_t departure_kind_;
  aqm::AqmQueue queue_;
  bool busy_ = false;
  LinkReport report_;
};

}  // namespace analognf::sim
