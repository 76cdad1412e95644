// Fixed-capacity open-addressing flow table, structure-of-arrays.
//
// The per-flow state tables of the cognitive stages (FlowTracker today)
// used to live in std::unordered_map: one heap node per flow, a pointer
// chase per packet, and unbounded growth. This container replaces that
// with the layout a data-plane flow table actually wants:
//
//   * power-of-two bucket array, bucket = high bits of the Fibonacci
//     hash of the key (simd::FlowHash), so low-entropy keys spread;
//   * SoA lanes — one byte of fingerprint per slot, so a probe compares
//     16 bytes of fingerprint before it ever loads a key or value;
//   * bounded linear probe window (kProbeWindow slots, wrapping) instead
//     of tombstones or rehashing: the table never allocates after
//     construction;
//   * one compare per window — the fingerprint lane carries kProbeWindow
//     mirrored bytes past its end (slot s < kProbeWindow is also stored
//     at capacity + s), so the window at any bucket, wrap included, is
//     one unaligned 16-byte load, and simd::ProbeWindowMatch returns its
//     match and empty bitmasks;
//   * incremental aging — every touch stamps the slot with a
//     monotonically increasing epoch, and when a window is full the
//     stalest slot in it is evicted (the flow least recently seen among
//     the colliders). No global sweep ever runs, and the epochs are only
//     scanned on a full-window miss.
//
// A fingerprint byte is 0 for an empty slot, else 0x80 | (7 low hash
// bits): the high bit doubles as the occupied marker, and a fingerprint
// mismatch rejects a slot without loading its 8-byte key. Distinct keys
// in the same window may alias on all 7 bits — the key lane is always
// compared before a hit is declared (test_fastpath pins this).
//
// A slot costs 1 + 8 + 8 + sizeof(Value) bytes (fingerprint, key, epoch,
// value): 65 B for FlowTracker's 48-byte state, so the default 16 384
// slots take 1.06 MB.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analognf/common/simd.hpp"

namespace analognf::common {

template <typename Value>
class FlowTable {
 public:
  static constexpr std::size_t kDefaultCapacity = 16384;
  static constexpr std::size_t kProbeWindow = simd::kProbeWindowBytes;

  // `capacity` is rounded up to a power of two, minimum kProbeWindow.
  explicit FlowTable(std::size_t capacity = kDefaultCapacity) {
    std::size_t cap = kProbeWindow;
    while (cap < capacity) cap <<= 1;
    mask_ = cap - 1;
    shift_ = 64;
    for (std::size_t c = cap; c > 1; c >>= 1) --shift_;
    fingerprints_.assign(cap + kProbeWindow, 0);  // + the mirrored tail
    keys_.assign(cap, 0);
    epochs_.assign(cap, 0);
    values_.resize(cap);
  }

  std::size_t capacity() const { return mask_ + 1; }
  std::size_t size() const { return size_; }
  std::uint64_t evictions() const { return evictions_; }

  static std::uint64_t HashOf(std::uint64_t key) {
    return simd::FlowHash(key);
  }

  // Looks up `key` (with its precomputed HashOf hash), inserting a
  // default-constructed value if absent. When the probe window is full,
  // the least-recently-touched slot in it is evicted and reused. The
  // returned pointer is valid until the next FindOrInsert. Every call
  // (hit or insert) freshens the slot's age stamp.
  Value* FindOrInsert(std::uint64_t key, std::uint64_t hash) {
    const std::uint8_t fp = FingerprintOf(hash);
    const std::size_t bucket = hash >> shift_;
    const simd::WindowBits window =
        simd::ProbeWindowMatch(&fingerprints_[bucket], fp);
    std::size_t slot = SlotOf(key, bucket, window.match);
    if (slot != kNone) {
      epochs_[slot] = ++epoch_;
      return &values_[slot];
    }
    if (window.empty != 0) {
      slot = (bucket + Lowest(window.empty)) & mask_;
    } else {
      slot = StalestIn(bucket);  // window full: age out the stalest
      ++evictions_;
      --size_;
    }
    fingerprints_[slot] = fp;
    if (slot < kProbeWindow) fingerprints_[capacity() + slot] = fp;
    keys_[slot] = key;
    epochs_[slot] = ++epoch_;
    values_[slot] = Value{};
    ++size_;
    return &values_[slot];
  }

  // Warms the cache lines of the first probe slot for `hash` (its
  // fingerprint, key, age stamp and value) without changing the table.
  // Batch callers prefetch every packet's slot before the in-order
  // updates, so the dependent misses overlap instead of serialising.
  void Prefetch(std::uint64_t hash) const {
    const std::size_t bucket = hash >> shift_;
    __builtin_prefetch(&fingerprints_[bucket]);
    __builtin_prefetch(&keys_[bucket]);
    __builtin_prefetch(&epochs_[bucket]);
    __builtin_prefetch(&values_[bucket]);
  }

  // Read-only lookup; nullptr when absent. Does not freshen the age.
  const Value* Find(std::uint64_t key, std::uint64_t hash) const {
    const std::size_t bucket = hash >> shift_;
    const std::size_t slot = SlotOf(
        key, bucket,
        simd::ProbeWindowMatch(&fingerprints_[bucket], FingerprintOf(hash))
            .match);
    return slot == kNone ? nullptr : &values_[slot];
  }

 private:
  static constexpr std::size_t kNone = ~std::size_t{0};

  static std::uint8_t FingerprintOf(std::uint64_t hash) {
    return static_cast<std::uint8_t>(0x80u | (hash & 0x7fu));
  }

  static std::size_t Lowest(std::uint32_t bits) {
    return static_cast<std::size_t>(__builtin_ctz(bits));
  }

  // The slot in the window at `bucket` whose fingerprint matched (bit p
  // of `match` is probe position p) and whose key is `key`; kNone if
  // none. A key is stored at most once in its window.
  std::size_t SlotOf(std::uint64_t key, std::size_t bucket,
                     std::uint32_t match) const {
    for (; match != 0; match &= match - 1) {
      const std::size_t slot = (bucket + Lowest(match)) & mask_;
      if (keys_[slot] == key) return slot;
    }
    return kNone;
  }

  // The least recently touched slot of the (full) window at `bucket`.
  // Epochs are unique, so the probe order cannot break a tie.
  std::size_t StalestIn(std::size_t bucket) const {
    std::size_t stale_slot = bucket;
    for (std::size_t p = 1; p < kProbeWindow; ++p) {
      const std::size_t slot = (bucket + p) & mask_;
      if (epochs_[slot] < epochs_[stale_slot]) stale_slot = slot;
    }
    return stale_slot;
  }

  std::size_t mask_ = 0;
  unsigned shift_ = 0;  // bucket = hash >> shift_ (top log2(cap) bits)
  std::size_t size_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t evictions_ = 0;
  // capacity() + kProbeWindow bytes: slot s < kProbeWindow is mirrored
  // at capacity() + s.
  std::vector<std::uint8_t> fingerprints_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> epochs_;
  std::vector<Value> values_;
};

}  // namespace analognf::common
