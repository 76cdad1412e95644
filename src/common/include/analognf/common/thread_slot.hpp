// Per-thread slot registry for thread-sharded telemetry.
//
// Sharded counters and histograms (telemetry/metrics.hpp) give each
// writer thread its own cache-line cell, picked by the writer's slot.
// Every thread starts on slot 0; a long-lived thread that writes metrics
// on the hot path (a port runtime worker) registers once and gets a slot
// no other live thread holds, so its writes never share a cell.
#pragma once

#include <cstddef>

namespace analognf {

class ThreadSlot {
 public:
  // Stable slot index of the calling thread: 0 for any unregistered
  // thread, 1 + i for a thread that Register() gave offset i.
  static std::size_t Current() { return current_; }

  // Assigns the calling thread a slot that no other live registered
  // thread uses, so its sharded telemetry writes never contend (or
  // merge) with another thread's. Without it every thread lands on slot
  // 0 and two such writers silently share one counter cell. Idempotent:
  // repeat calls keep the first assignment. The slot is released when
  // the thread exits and may then go to a later thread; the release
  // happens before that reuse, so the later thread's writes to a shared
  // cell add to the earlier ones exactly. Returns the slot.
  static std::size_t Register();

  // Upper bound (exclusive) on slot indices handed out so far: slot 0 +
  // the most registered threads alive at once. Sizing a sharded counter
  // to at least this (rounded up to a power of two) guarantees
  // registered threads never alias.
  static std::size_t UpperBound();

 private:
  inline static thread_local std::size_t current_ = 0;
};

}  // namespace analognf
