// The AQM-guarded queue: one FIFO behind one policy's two decision
// points (the cognitive traffic manager of Fig. 5, Sec. 5 `AQM()`).
//
// Every AQM-guarded queue in the repository is one of these: each
// (port, class) egress queue of the switch's traffic manager and the
// bottleneck both simulators drive. The queue asks the policy at
// admission (accept, drop or CE-mark) and again at dequeue (the
// CoDel-style head-drop loop); it is the only place the library builds
// an AqmContext.
#pragma once

#include <cstdint>
#include <optional>

#include "analognf/aqm/aqm.hpp"
#include "analognf/net/queue.hpp"

namespace analognf::aqm {

// What Offer() did with a packet.
enum class Admission {
  kEnqueued,
  kMarked,  // enqueued with ecn_marked set
  kAqmDropped,
  kTailDropped,  // accepted or marked by the policy, but the FIFO was full
};

class AqmQueue {
 public:
  // `policy` must outlive the queue.
  AqmQueue(net::PacketQueue::Config config, AqmPolicy& policy);

  // Offers `meta` at `now_s`: asks the policy, then drops it (counted as
  // an AQM drop), or enqueues it, CE-marked on a mark verdict. A full
  // FIFO tail-drops whatever the policy let through.
  Admission Offer(net::PacketMeta meta, double now_s);

  // Dequeues the head at `now_s` and lets the policy head-drop it:
  // on_drop(meta) runs for each discarded packet (counted as an AQM
  // drop) and the next packet takes its place. Returns the survivor,
  // or nullopt once the queue has run dry.
  template <class OnDrop>
  std::optional<net::DequeuedPacket> Dequeue(double now_s, OnDrop&& on_drop) {
    auto head = queue_.Dequeue(now_s);
    while (head.has_value() && DropsHead(*head, now_s)) {
      on_drop(head->meta);
      head = queue_.Dequeue(now_s);
    }
    return head;
  }

  const net::PacketQueue& queue() const { return queue_; }
  // CE marks the policy set at admission, including on packets the full
  // FIFO then tail-dropped.
  std::uint64_t marks() const { return marks_; }

 private:
  bool DropsHead(const net::DequeuedPacket& head, double now_s);

  net::PacketQueue queue_;
  AqmPolicy& policy_;
  std::uint64_t marks_ = 0;
};

}  // namespace analognf::aqm
