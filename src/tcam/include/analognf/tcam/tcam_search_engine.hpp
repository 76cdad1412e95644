// Compiled digital match-action engine: the bitmask TCAM search.
// (IPv4 longest-prefix match has its own engine, lpm_flat_engine.hpp.)
//
// Real TCAM hardware evaluates every stored row in parallel per search
// cycle; a rowwise `TernaryWord::Matches` scan finds the same winner but
// walks one stored bit at a time in software. This engine restores the hardware's wide-row shape, mirroring the pCAM
// side's PcamSearchEngine (core/pcam_search_engine.hpp):
//
//   * Compile: every live entry's ternary pattern becomes structure-of-
//     arrays mask/value `uint64_t` lanes — one lane set per 64 key bits —
//     stored in priority-sorted slot order (priority descending, stable
//     by table index). A row matches iff `(key & mask) == value` holds
//     on every lane, so one search evaluates a whole bank of 64 rows
//     with the explicit SIMD bank kernel (common/simd.hpp; AVX2 with a
//     scalar fallback), and the first set bit of the bank's match mask
//     IS the priority winner.
//   * Match tiers: Compile() additionally builds a chunk-bitmap pruning
//     index (tcam_classifier.hpp) when the heuristic says it pays off.
//     On the pruned tier a search intersects a handful of 256-bucket
//     slot bitsets and verifies only the surviving candidates; the
//     linear tier scans every bank. Both tiers return bit-identical
//     winners; tier() reports which one this compilation chose.
//   * Delta compilation (common/table_delta.hpp): the priority-sorted
//     lanes, slot metadata and pruning bitmaps live in an immutable
//     CompiledCore behind a shared_ptr. CompileDeltaFrom() shares the
//     base engine's core and copies only its small overlay — an
//     erased-slot bitmap plus an unsorted appended tail — so a
//     single-rule commit costs microseconds instead of an O(table)
//     rebuild. PatchErase masks a core (or tail) slot out of every
//     match word; PatchInsert appends to the tail, which searches scan
//     exhaustively and merge with the core's first hit by the same
//     (priority desc, index asc) rule — provably the full recompile's
//     winner, because the core first hit is the best surviving core
//     candidate and the tail is compared by explicit keys. The owning
//     table's DeltaCommitPolicy bounds the overlay so the tail's linear
//     scan stays a rounding error next to the core.
//   * Concurrency contract: an engine is compiled exactly once (by the
//     owning table's Commit()) and is immutable afterwards. Search and
//     SearchBatch are const and touch only compiled state, so any number
//     of threads may search one compiled engine concurrently. Searching
//     an engine that was never compiled throws std::logic_error — the
//     lazy recompile-inside-Search of earlier revisions is gone; commits
//     happen off the hot path (see docs/ARCHITECTURE.md, "Concurrency
//     contract").
//   * Batching/threading: SearchBatch runs every key against one
//     compiled engine on the calling thread; a search never forks. The
//     hardware's row parallelism is modelled by the 64-row banks and the
//     SIMD kernel, not by spreading one search across cores.
//
// The engine is purely functional: the cost of a search cycle is the
// published TcamTableSnapshot's search_energy_j and search_latency_s,
// which the searcher charges once per search (see tcam.hpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analognf/common/table_delta.hpp"
#include "analognf/tcam/tcam_classifier.hpp"
#include "analognf/tcam/ternary.hpp"
#include "analognf/telemetry/metrics.hpp"

namespace analognf::tcam {

// Which compiled match tier a Compile() chose (see tcam_classifier.hpp
// for the heuristic). Recorded per snapshot: the engine inside a
// published TcamTableSnapshot exposes the tier its row set compiled to.
enum class TcamMatchTier {
  kLinear,  // full scan of every bank, SIMD bank compares
  kPruned,  // chunk-bitmap intersection, then candidate verification
};

// Tuning knobs, per table.
struct TcamSearchConfig {
  // Pruning-classifier size threshold. Setting classifier.min_slots to
  // SIZE_MAX pins the engine to the linear tier (the bench's reference
  // variant).
  TcamClassifierConfig classifier;
  // When does the owning table's Commit() patch a cloned snapshot
  // instead of recompiling (common/table_delta.hpp)?
  // DeltaCommitPolicy::Disabled() pins every commit to a full
  // recompile (the differential tests' reference configuration).
  DeltaCommitPolicy delta_policy;
};

// View of one live table row handed to Compile().
struct TcamEngineEntry {
  const TernaryWord* pattern = nullptr;
  std::uint32_t action = 0;
  std::int32_t priority = 0;
  std::size_t index = 0;  // stable table index, reported on hits
};

// A hit: the winning entry under (priority desc, index asc) resolution.
struct TcamEngineHit {
  std::size_t entry_index = 0;
  std::uint32_t action = 0;
  std::int32_t priority = 0;
};

class TcamSearchEngine {
 public:
  explicit TcamSearchEngine(std::size_t key_width,
                            TcamSearchConfig config = {});

  // --- compilation (driven by the owning table's Commit) --------------
  // Builds a fresh immutable CompiledCore from the live rows (any
  // order) and drops any overlay. After Compile returns the engine is
  // immutable and safe to search from any number of threads.
  void Compile(const std::vector<TcamEngineEntry>& live_entries);

  // Delta compilation: shares `base`'s CompiledCore (pointer copy, no
  // lane or bitmap work) and copies its overlay, leaving this engine
  // ready for PatchInsert/PatchErase. `base` must be compiled and have
  // the same key width and config; it is never mutated.
  void CompileDeltaFrom(const TcamSearchEngine& base);
  // Appends one live entry to the unsorted tail. Only valid between
  // CompileDeltaFrom and publication (single mutator).
  void PatchInsert(const TcamEngineEntry& entry);
  // Masks the entry's slot (tail first — the most recent insert of a
  // reused index wins — then core) out of every future match word.
  // Returns false when the index is stored nowhere (e.g. the entry was
  // both inserted and erased between two commits).
  bool PatchErase(std::size_t entry_index);

  bool compiled() const { return compiled_; }

  std::size_t key_width() const { return key_width_; }
  // Stored searchable slots: compiled core + appended tail (erased
  // slots still occupy storage until the next full recompile).
  std::size_t slots() const { return core_slots() + tail_count_; }
  // Overlay the delta path has accumulated on top of the core; the
  // owning table's DeltaCommitPolicy bounds this before growing it.
  std::size_t overlay_slots() const { return tail_count_ + erased_count_; }
  std::size_t tail_slots() const { return tail_count_; }
  std::size_t erased_slots() const { return erased_count_; }
  const TcamSearchConfig& config() const { return config_; }
  // The match tier the core compilation chose for this row set (delta
  // snapshots inherit their core's tier).
  TcamMatchTier tier() const {
    return core_ != nullptr && core_->pruner.active() ? TcamMatchTier::kPruned
                                                      : TcamMatchTier::kLinear;
  }
  // Expected surviving candidate fraction of the pruned tier (1.0 on the
  // linear tier); goes into the bench JSON as `prune_ratio` context.
  double expected_prune_density() const {
    return core_ != nullptr ? core_->pruner.expected_density() : 1.0;
  }

  // --- search ---------------------------------------------------------
  // One probe. Requires a compiled engine (throws std::logic_error
  // otherwise) and key.width() == key_width(). Thread-safe.
  std::optional<TcamEngineHit> Search(const BitKey& key) const;
  // `count` probes; out is resized to count. Same requirements.
  void SearchBatch(const BitKey* keys, std::size_t count,
                   std::vector<std::optional<TcamEngineHit>>& out) const;

  // Attaches telemetry counters (searches, rows_scanned, recompiles).
  // Unbound handles are no-ops, so an un-instrumented engine pays one
  // predictable branch per event. Counter cells are thread-sharded, so
  // concurrent const searches may report through the same handles.
  void BindTelemetry(telemetry::SearchEngineCounters counters) {
    telemetry_ = counters;
  }

 private:
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  // One full compilation's immutable state. Shared (shared_ptr) between
  // the snapshot that compiled it and every delta snapshot derived from
  // it; never mutated after Compile().
  struct CompiledCore {
    std::size_t slots = 0;
    // Lane-major SoA: mask[lane][slot], value[lane][slot]. Columns are
    // zero-padded to whole 64-slot banks so the SIMD bank kernel can
    // read full banks; padding slots read as match-everything and are
    // masked off by EvalBank's valid mask (bitmap rows never name
    // them).
    std::vector<std::vector<std::uint64_t>> mask;
    std::vector<std::vector<std::uint64_t>> value;
    TcamClassifier pruner;
    std::vector<std::size_t> slot_entry;  // slot -> stable table index
    std::vector<std::uint32_t> slot_action;
    std::vector<std::int32_t> slot_priority;
    // Stable table index -> core slot (kNoSlot when the index compiled
    // to nothing); lets PatchErase find a core slot in O(1).
    std::vector<std::size_t> entry_slot;
  };

  std::size_t core_slots() const { return core_ != nullptr ? core_->slots : 0; }
  std::size_t BankCount() const { return (core_slots() + 63) / 64; }
  std::size_t TailBankCount() const { return (tail_count_ + 63) / 64; }
  // 64-bit match mask of core bank `bank` (bit s = slot bank*64+s
  // matches and is not erased).
  std::uint64_t EvalBank(const std::uint64_t* key_lanes,
                         std::size_t bank) const;
  // Linear-tier search: lowest matching live core slot, or kNoSlot.
  std::size_t FirstHit(const std::uint64_t* key_lanes) const;
  // Pruned-tier search: bitmap intersection, then candidate verify in
  // ascending slot order. Adds verified candidates to `candidates`.
  std::size_t PrunedFirstHit(const std::uint64_t* key_lanes,
                             std::uint64_t& candidates) const;
  // Exact (key & mask) == value check of one core slot across all lanes.
  bool VerifySlot(const std::uint64_t* key_lanes, std::size_t slot) const;
  // Best live matching tail slot under (priority desc, entry asc), or
  // kNoSlot. The tail is unsorted, so every tail bank is evaluated.
  std::size_t TailBest(const std::uint64_t* key_lanes) const;
  // Combines the core tier's first hit with the tail's best under
  // (priority desc, entry asc).
  std::optional<TcamEngineHit> MergeWithTail(
      std::size_t core_slot, const std::uint64_t* key_lanes) const;
  std::optional<TcamEngineHit> HitAt(std::size_t slot) const;
  void RequireCompiled() const;  // throws std::logic_error

  std::size_t key_width_;
  std::size_t lanes_;
  TcamSearchConfig config_;
  bool compiled_ = false;

  std::shared_ptr<const CompiledCore> core_;

  // --- delta overlay (small; copied by CompileDeltaFrom) --------------
  // Erased core slots, one bit per slot, padded to a multiple of 4
  // words so the pruned tier can mask intersection words in place.
  std::vector<std::uint64_t> core_erased_;
  std::size_t erased_count_ = 0;  // erased core + erased tail slots
  // Unsorted appended tail, same lane-major bank-padded layout as the
  // core. tail_live_ masks erased tail slots (an index inserted and
  // then erased across delta commits).
  std::size_t tail_count_ = 0;
  std::vector<std::vector<std::uint64_t>> tail_mask_;
  std::vector<std::vector<std::uint64_t>> tail_value_;
  std::vector<std::uint64_t> tail_live_;
  std::vector<std::size_t> tail_entry_;
  std::vector<std::uint32_t> tail_action_;
  std::vector<std::int32_t> tail_priority_;

  telemetry::SearchEngineCounters telemetry_;
};

}  // namespace analognf::tcam
