// Lock-free flight recorder: the last N per-batch trace records of a
// stage-graph data plane, for post-mortem dumps.
//
// The data plane appends one BatchTraceRecord per ingress batch; the
// recorder keeps them in a fixed power-of-two ring and overwrites the
// oldest. Any number of threads may Record concurrently: a fetch_add
// assigns the sequence, then a CAS on the per-slot seqlock version
// claims the slot — a writer that loses the claim (another writer owns
// the slot, or a newer sequence already landed there) drops its record
// rather than blocking or tearing an in-flight one. Dump() can run at
// any time; a record that was mid-overwrite during the copy is simply
// skipped. Record contents cross threads as word-wise relaxed atomics,
// so a racing copy is well-defined (and then discarded by the version
// re-check).
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

namespace analognf::telemetry {

// One ingress batch through the stage graph. Plain data only: records
// are copied in and out of the ring whole.
struct BatchTraceRecord {
  static constexpr std::size_t kMaxStages = 16;

  std::uint64_t sequence = 0;  // recorder-assigned, monotonically increasing
  double now_s = 0.0;          // batch arrival instant
  std::uint32_t batch_size = 0;

  // Verdict counts over the batch (partition batch_size).
  std::uint32_t forwarded = 0;
  std::uint32_t parse_errors = 0;
  std::uint32_t firewall_denies = 0;
  std::uint32_t no_route = 0;
  std::uint32_t aqm_drops = 0;
  std::uint32_t queue_full = 0;

  // Packets queued across all egress queues after the batch committed.
  std::uint64_t queue_depth = 0;

  // Wall-clock spent in each stage's Process() for this batch; stages
  // beyond kMaxStages are folded into the last slot. total_ns is the
  // whole-graph sum.
  double total_ns = 0.0;
  std::uint32_t stage_count = 0;
  std::array<double, kMaxStages> stage_ns{};

  // pCAM match-probability summary over the batch (classifier
  // confidences and AQM drop probabilities); count == 0 means no analog
  // stage contributed.
  std::uint64_t degree_count = 0;
  double degree_min = 0.0;
  double degree_max = 0.0;
  double degree_sum = 0.0;
};

class FlightRecorder {
 public:
  // `capacity` is rounded up to a power of two; 0 disables the recorder
  // (Record becomes a no-op, Dump returns nothing).
  explicit FlightRecorder(std::size_t capacity);

  bool enabled() const { return !slots_.empty(); }
  std::size_t capacity() const { return slots_.size(); }
  // Total sequences ever claimed, dropped ones included (>= capacity
  // means the ring has wrapped).
  std::uint64_t recorded() const {
    return head_.load(std::memory_order_acquire);
  }
  // Records dropped because another writer held or overtook their slot.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // Appends a record (rec.sequence is assigned by the recorder). Safe
  // from any number of threads; may drop the record under slot
  // contention (see dropped()).
  void Record(BatchTraceRecord rec);

  // The most recent records, oldest first, at most `max_records` (and at
  // most capacity()). Records overwritten mid-copy are skipped.
  std::vector<BatchTraceRecord> Dump(
      std::size_t max_records = static_cast<std::size_t>(-1)) const;

 private:
  struct alignas(64) Slot {
    // Seqlock: odd while the slot is being written, 2 * (sequence + 1)
    // once record holds that sequence's data.
    std::atomic<std::uint64_t> version{0};
    BatchTraceRecord record{};
  };

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::atomic<std::uint64_t> head_{0};
  std::atomic<std::uint64_t> dropped_{0};
};

}  // namespace analognf::telemetry
