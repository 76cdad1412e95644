// Active queue management policy interface.
//
// Sec. 5: "Network systems use AQM algorithms, like CODEL, RED or PIE in
// order to keep an optimal queue size by selectively dropping packets."
// All of them — and the paper's analog pCAM AQM — implement this
// interface, and one component drives it: aqm::AqmQueue (aqm_queue.hpp),
// the AQM-guarded FIFO behind every switch egress class and both
// simulators' bottleneck.
//
// Two decision points exist in practice: RED/PIE-family policies decide
// at enqueue (admission: accept, drop or ECN-mark), CoDel decides at
// dequeue (head drop). A policy overrides whichever hook it uses; the
// defaults accept everything.
#pragma once

#include <cstdint>
#include <limits>

#include "analognf/net/generator.hpp"

namespace analognf::aqm {

// Queue state snapshot handed to the policy at a decision point.
struct AqmContext {
  double now_s = 0.0;
  // Sojourn time: at dequeue, of the packet being dequeued; at enqueue,
  // of the current head-of-line packet (0 for an empty queue).
  double sojourn_s = 0.0;
  std::uint64_t queue_bytes = 0;
  std::uint64_t queue_packets = 0;
  net::PacketMeta packet;  // the packet being decided on
};

// Admission verdict. kMark is ECN congestion signalling: the packet is
// enqueued but carries a CE mark (congestion control function, Fig. 5).
enum class AqmVerdict { kAccept, kDrop, kMark };

class AqmPolicy {
 public:
  virtual ~AqmPolicy() = default;

  // Admission decision before enqueue: accept, drop, or (ECN) accept
  // with a CE mark.
  virtual AqmVerdict DecideOnEnqueue(const AqmContext& /*ctx*/) {
    return AqmVerdict::kAccept;
  }
  // Head decision after dequeue. True = drop (the queue then dequeues
  // the next packet within the same service slot).
  virtual bool ShouldDropOnDequeue(const AqmContext& /*ctx*/) {
    return false;
  }

  // The most recent drop probability the policy computed, if it is
  // probability-based (analog AQM, RED, PIE); NaN otherwise. Lets the
  // simulator record the Fig. 7-style PDP trace.
  virtual double LastDropProbability() const {
    return std::numeric_limits<double>::quiet_NaN();
  }
};

// The no-op policy: pure tail-drop by queue capacity (the "without AQM"
// curve of Fig. 8).
class TailDropOnly final : public AqmPolicy {};

}  // namespace analognf::aqm
