// Discrete-event simulation core.
//
// A typed calendar: an event is a plain {time, seq, kind, arg} record and
// the simulator that owns the calendar dispatches on `kind` in one switch.
// Nothing is captured or type-erased, so once the heap has grown to its
// working size, scheduling and popping never allocate. Events pop in time
// order, with FIFO tie-breaking via a monotone sequence number so
// same-timestamp events run in scheduling order (deterministic replay).
#pragma once

#include <algorithm>
#include <cstdint>
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
  // Schedules an event at absolute time `time_s`, which must not precede
  // the current simulation time.
  void Schedule(double time_s, std::uint32_t kind, std::uint64_t arg = 0) {
    if (time_s < now_s_) {
      throw std::invalid_argument("EventQueue::Schedule: time in the past");
    }
    heap_.push_back({time_s, next_seq_++, kind, arg});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }
  // Convenience: schedule relative to now.
  void ScheduleIn(double delay_s, std::uint32_t kind, std::uint64_t arg = 0) {
    Schedule(now_s_ + delay_s, kind, arg);
  }

  // Pops the earliest event into `event` and advances the clock to it if
  // it is due by `t_end_s`. Otherwise returns false and advances the
  // clock to `t_end_s` (never backwards).
  bool PopUntil(double t_end_s, Event& event) {
    if (heap_.empty() || heap_.front().time_s > t_end_s) {
      now_s_ = std::max(now_s_, t_end_s);
      return false;
    }
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    event = heap_.back();
    heap_.pop_back();
    now_s_ = event.time_s;
    ++processed_;
    return true;
  }

  double now() const { return now_s_; }
  bool empty() const { return heap_.empty(); }
  std::uint64_t processed() const { return processed_; }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };

  std::vector<Event> heap_;
  double now_s_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

}  // namespace analognf::sim
