// Discrete-event simulation core.
//
// A typed calendar: an event is a plain {time, seq, kind, arg} record and
// the simulator that owns the calendar dispatches on `kind` in one switch.
// Nothing is captured or type-erased. Events pop in time order, with FIFO
// tie-breaking via a monotone sequence number so same-timestamp events
// run in scheduling order (deterministic replay).
//
// Most event kinds are scheduled in time order: an ack at now + RTT/2, a
// loss at now + RTT, the one outstanding departure or sampling tick. Each
// kind below kLaneKinds therefore gets a FIFO lane, a linked list that an
// event joins when it is not earlier than the lane's tail. Any other
// event goes to a binary heap. Every lane is sorted by (time, seq), so
// popping the least of the heap top and the lane heads yields exactly the
// heap's order. Lanes and heap share one node pool (the heap holds pool
// indices), so once the pool has grown to the working depth, scheduling
// and popping never allocate, whatever the mix of kinds.
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

namespace analognf::sim {

struct Event {
  double time_s = 0.0;
  std::uint64_t seq = 0;
  std::uint32_t kind = 0;  // the owning simulator's event type
  std::uint64_t arg = 0;   // its payload (a source index, a flag, ...)
};

class EventQueue {
 public:
  // Kinds below this bound get a FIFO lane; the rest always use the heap.
  static constexpr std::uint32_t kLaneKinds = 8;

  // Schedules an event at absolute time `time_s`, which must be finite
  // and must not precede the current simulation time.
  void Schedule(double time_s, std::uint32_t kind, std::uint64_t arg = 0) {
    // A NaN passes the past-time check and would break the heap's order.
    if (!std::isfinite(time_s)) {
      throw std::invalid_argument("EventQueue::Schedule: non-finite time");
    }
    if (time_s < now_s_) {
      throw std::invalid_argument("EventQueue::Schedule: time in the past");
    }
    const std::uint32_t index = Allocate();
    Node& node = nodes_[index];
    node = {time_s, next_seq_++, kind, kNone, arg};
    ++size_;
    if (kind < kLaneKinds) {
      Lane& lane = lanes_[kind];
      if (lane.head == kNone) {
        lane = {time_s, node.seq, index, index, time_s};
        lanes_in_use_ = std::max(lanes_in_use_, kind + 1);
        return;
      }
      if (time_s >= lane.tail_time_s) {
        nodes_[lane.tail].next = index;
        lane.tail = index;
        lane.tail_time_s = time_s;
        return;
      }
    }
    heap_.push_back(index);
    std::push_heap(heap_.begin(), heap_.end(), Later{nodes_.data()});
  }
  // Convenience: schedule relative to now.
  void ScheduleIn(double delay_s, std::uint32_t kind, std::uint64_t arg = 0) {
    Schedule(now_s_ + delay_s, kind, arg);
  }

  // Pops the earliest event into `event` and advances the clock to it if
  // it is due by `t_end_s`. Otherwise returns false and advances the
  // clock to `t_end_s` (never backwards).
  bool PopUntil(double t_end_s, Event& event) {
    // The earliest of the heap top and the lane heads; an empty lane's
    // head key is (+inf, max), which no scheduled (finite) event loses to.
    double best_time = kEmptyTime;
    std::uint64_t best_seq = kEmptySeq;
    std::uint32_t best = kLaneKinds;  // the heap
    if (!heap_.empty()) {
      const Node& top = nodes_[heap_.front()];
      best_time = top.time_s;
      best_seq = top.seq;
    }
    for (std::uint32_t k = 0; k < lanes_in_use_; ++k) {
      const Lane& lane = lanes_[k];
      if (lane.head_time_s < best_time ||
          (lane.head_time_s == best_time && lane.head_seq < best_seq)) {
        best_time = lane.head_time_s;
        best_seq = lane.head_seq;
        best = k;
      }
    }
    if (size_ == 0 || best_time > t_end_s) {
      now_s_ = std::max(now_s_, t_end_s);
      return false;
    }

    std::uint32_t index;
    if (best == kLaneKinds) {
      std::pop_heap(heap_.begin(), heap_.end(), Later{nodes_.data()});
      index = heap_.back();
      heap_.pop_back();
    } else {
      Lane& lane = lanes_[best];
      index = lane.head;
      lane.head = nodes_[index].next;
      if (lane.head == kNone) {
        lane = Lane{};
      } else {
        lane.head_time_s = nodes_[lane.head].time_s;
        lane.head_seq = nodes_[lane.head].seq;
      }
    }
    Node& node = nodes_[index];
    event = {node.time_s, node.seq, node.kind, node.arg};
    node.next = free_;
    free_ = index;
    --size_;
    now_s_ = event.time_s;
    ++processed_;
    return true;
  }

  double now() const { return now_s_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t processed() const { return processed_; }

 private:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  static constexpr double kEmptyTime =
      std::numeric_limits<double>::infinity();
  static constexpr std::uint64_t kEmptySeq =
      std::numeric_limits<std::uint64_t>::max();
  // The pool's first block: one allocation covers a short cell.
  static constexpr std::size_t kFirstBlock = 64;

  // An event plus its successor in a lane or in the free list.
  struct Node {
    double time_s;
    std::uint64_t seq;
    std::uint32_t kind;
    std::uint32_t next;
    std::uint64_t arg;
  };
  // A FIFO lane with its head's key cached for PopUntil's scan.
  struct Lane {
    double head_time_s = kEmptyTime;
    std::uint64_t head_seq = kEmptySeq;
    std::uint32_t head = kNone;
    std::uint32_t tail = kNone;
    double tail_time_s = kEmptyTime;
  };
  struct Later {
    const Node* nodes;
    bool operator()(std::uint32_t a, std::uint32_t b) const {
      if (nodes[a].time_s != nodes[b].time_s) {
        return nodes[a].time_s > nodes[b].time_s;
      }
      return nodes[a].seq > nodes[b].seq;
    }
  };

  // Takes a node from the free list, or grows the pool. The heap's
  // capacity follows the pool's, so pushing onto it never allocates.
  std::uint32_t Allocate() {
    if (free_ != kNone) {
      const std::uint32_t index = free_;
      free_ = nodes_[index].next;
      return index;
    }
    if (nodes_.size() == nodes_.capacity()) {
      const std::size_t capacity =
          std::max(kFirstBlock, 2 * nodes_.capacity());
      nodes_.reserve(capacity);
      heap_.reserve(capacity);
    }
    nodes_.emplace_back();
    return static_cast<std::uint32_t>(nodes_.size() - 1);
  }

  std::vector<Node> nodes_;
  std::vector<std::uint32_t> heap_;  // pool indices, ordered by Later
  std::array<Lane, kLaneKinds> lanes_{};
  std::uint32_t lanes_in_use_ = 0;  // 1 + the highest laned kind seen
  std::uint32_t free_ = kNone;      // head of the free-node list
  std::size_t size_ = 0;            // pending events
  double now_s_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace analognf::sim
