#include "analognf/telemetry/flight_recorder.hpp"

#include <algorithm>
#include <type_traits>

namespace analognf::telemetry {

namespace {

std::size_t RoundUpPow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

static_assert(std::is_trivially_copyable_v<BatchTraceRecord>,
              "records are copied in and out of the ring as raw words");
static_assert(sizeof(BatchTraceRecord) % sizeof(std::uint64_t) == 0 &&
                  alignof(BatchTraceRecord) >= alignof(std::uint64_t),
              "word-wise ring copies require 8-byte-aligned records");

constexpr std::size_t kRecordWords =
    sizeof(BatchTraceRecord) / sizeof(std::uint64_t);

// Word-wise copies into and out of a ring slot: per-word atomicity is
// what lets Dump race a Record without undefined behaviour. The orders
// make the seqlock hold in the C++ memory model, not only on x86. A
// reader whose acquire load sees any word of a newer record synchronizes
// with that word's release store, so it also sees the odd version the
// writer stored first, and its version re-check discards the copy.
// (Plain relaxed copies would let the re-check move above the copy;
// Boehm, "Can Seqlocks Get Along with Programming Language Memory
// Models?", MSPC 2012.)
void StoreRecord(BatchTraceRecord& dst, const BatchTraceRecord& src) {
  auto* d = reinterpret_cast<std::uint64_t*>(&dst);
  const auto* s = reinterpret_cast<const std::uint64_t*>(&src);
  for (std::size_t i = 0; i < kRecordWords; ++i) {
    std::atomic_ref<std::uint64_t>(d[i]).store(s[i],
                                               std::memory_order_release);
  }
}

void LoadRecord(BatchTraceRecord& dst, const BatchTraceRecord& src) {
  auto* d = reinterpret_cast<std::uint64_t*>(&dst);
  // atomic_ref needs a mutable lvalue even for loads (const support is
  // post-C++20); the slot is only ever read through it here.
  auto* s = reinterpret_cast<std::uint64_t*>(
      const_cast<BatchTraceRecord*>(&src));
  for (std::size_t i = 0; i < kRecordWords; ++i) {
    d[i] = std::atomic_ref<std::uint64_t>(s[i]).load(std::memory_order_acquire);
  }
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity) {
  if (capacity == 0) return;
  slots_ = std::vector<Slot>(RoundUpPow2(capacity));
  mask_ = slots_.size() - 1;
}

void FlightRecorder::Record(BatchTraceRecord rec) {
  if (slots_.empty()) return;
  const std::uint64_t seq = head_.load(std::memory_order_relaxed);
  Slot& slot = slots_[static_cast<std::size_t>(seq) & mask_];
  slot.version.store(2 * seq + 1, std::memory_order_relaxed);
  rec.sequence = seq;
  StoreRecord(slot.record, rec);
  slot.version.store(2 * (seq + 1), std::memory_order_release);
  head_.store(seq + 1, std::memory_order_release);
}

std::vector<BatchTraceRecord> FlightRecorder::Dump(
    std::size_t max_records) const {
  std::vector<BatchTraceRecord> out;
  if (slots_.empty()) return out;
  const std::uint64_t head = head_.load(std::memory_order_acquire);
  const std::uint64_t window =
      std::min<std::uint64_t>({head, slots_.size(), max_records});
  out.reserve(static_cast<std::size_t>(window));
  for (std::uint64_t seq = head - window; seq < head; ++seq) {
    const Slot& slot = slots_[static_cast<std::size_t>(seq) & mask_];
    const std::uint64_t expect = 2 * (seq + 1);
    if (slot.version.load(std::memory_order_acquire) != expect) continue;
    BatchTraceRecord copy;
    LoadRecord(copy, slot.record);
    // Re-check after the copy: if the writer began overwriting the slot
    // mid-copy the version moved on and the (possibly torn) copy is
    // discarded.
    if (slot.version.load(std::memory_order_acquire) != expect) continue;
    out.push_back(copy);
  }
  return out;
}

}  // namespace analognf::telemetry
