// Lock-free single-producer / single-consumer ring.
//
// The ingress layer (src/traffic) moves batches from generator threads
// into run-to-completion port workers the way a DPDK rx ring moves
// mbufs: one producer, one consumer, no locks, no allocation after
// construction. The implementation is the classic bounded ring with
// cache-line-padded head/tail counters plus *cached* counterparts: the
// producer re-reads the consumer's head only when its cached copy says
// the ring looks full (and vice versa), so in steady state each side
// runs entirely out of its own cache line.
//
// Exchange on pop: TryPop swaps the consumer's previous item into the
// slot it takes the new one from, and the producer's next TryPush into
// that slot destroys it there. Heap memory the producer allocated (the
// packet buffers of a spent batch) therefore dies on the producer's
// thread, and the consumer frees nothing it did not allocate. Slots
// keep their last spent item until they are overwritten or the ring is
// destroyed.
//
// Memory ordering: the producer publishes slots with a release store of
// tail_; the consumer acquires tail_ before reading slots. The consumer
// writes the slot (the swapped-in item) before its release store of
// head_, and the producer acquires head_ before it reuses the slot.
// Exactly one thread may call TryPush and one TryPop at a time — that
// is the contract TSan checks in SpscRingTest.TwoThreadHandoff.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace analognf {

template <typename T>
class SpscRing {
 public:
  // Capacity is rounded up to a power of two (minimum 2). The ring
  // holds `capacity` elements: the head/tail counters are free-running
  // uint64s, so no slot is sacrificed to distinguish full from empty.
  explicit SpscRing(std::size_t capacity)
      : capacity_(RoundUpPow2(capacity)),
        mask_(capacity_ - 1),
        slots_(capacity_) {}

  SpscRing(const SpscRing&) = delete;
  SpscRing& operator=(const SpscRing&) = delete;

  std::size_t capacity() const { return capacity_; }

  // ------------------------------------------------------------ producer
  // Moves `item` into the ring, destroying the spent item the slot held;
  // false if full (item is left untouched).
  bool TryPush(T& item) {
    const std::uint64_t tail = tail_.load(std::memory_order_relaxed);
    if (tail - head_cache_ >= capacity_) {
      head_cache_ = head_.load(std::memory_order_acquire);
      if (tail - head_cache_ >= capacity_) return false;
    }
    slots_[tail & mask_] = std::move(item);
    tail_.store(tail + 1, std::memory_order_release);
    return true;
  }
  bool TryPush(T&& item) { return TryPush(item); }

  // ------------------------------------------------------------ consumer
  // Exchanges the oldest item with `out`: `out` receives it and the slot
  // keeps `out`'s previous value for the producer to destroy. False if
  // empty (`out` is left untouched).
  bool TryPop(T& out) {
    const std::uint64_t head = head_.load(std::memory_order_relaxed);
    if (head == tail_cache_) {
      tail_cache_ = tail_.load(std::memory_order_acquire);
      if (head == tail_cache_) return false;
    }
    std::swap(out, slots_[head & mask_]);
    head_.store(head + 1, std::memory_order_release);
    return true;
  }

  // ------------------------------------------------------------ observers
  // Snapshot views; exact only when the opposite side is quiescent
  // (which is how the drain logic uses them).
  bool Empty() const {
    return head_.load(std::memory_order_acquire) ==
           tail_.load(std::memory_order_acquire);
  }

 private:
  static std::size_t RoundUpPow2(std::size_t v) {
    if (v < 2) v = 2;
    std::size_t p = 2;
    while (p < v) {
      if (p > (static_cast<std::size_t>(1) << 62)) {
        throw std::invalid_argument("SpscRing: capacity too large");
      }
      p <<= 1;
    }
    return p;
  }

  const std::size_t capacity_;
  const std::size_t mask_;
  std::vector<T> slots_;

  // Producer-owned line: tail plus the producer's cached copy of head.
  alignas(64) std::atomic<std::uint64_t> tail_{0};
  std::uint64_t head_cache_ = 0;
  // Consumer-owned line: head plus the consumer's cached copy of tail.
  alignas(64) std::atomic<std::uint64_t> head_{0};
  std::uint64_t tail_cache_ = 0;
};

}  // namespace analognf
