// Shared delta-commit contract for the table engines (TCAM, LPM, pCAM).
//
// Every table follows the same stage-then-Commit() discipline
// (tcam.hpp, pcam_array.hpp): mutations stage against the authoritative
// row store and an explicit Commit() publishes an immutable snapshot
// RCU-style through SnapshotCell<T> (snapshot.hpp). Historically every
// Commit() recompiled the world; at internet scale (1M LPM routes, 256k
// TCAM rules) that turns a single-rule change into a multi-millisecond
// rebuild. This header is the contract that makes commits incremental:
//
//   * TableDelta — the staged-mutation log. Mutators note which rows
//     they touched (insert / erase / patch) between commits; Commit()
//     reads the log to decide whether the staged set is small enough to
//     patch onto a copy-on-write clone of the published snapshot
//     instead of recompiling. The log deduplicates: applying patches
//     per *final* row state, in first-touch order, reproduces the full
//     recompile bit-for-bit without replaying intermediate states.
//   * DeltaCommitPolicy — the churn-density heuristic. A delta commit
//     costs O(touched rows + overlay); a full recompile costs O(table).
//     The policy takes the delta path only when the staged set plus any
//     overlay the engine has already accumulated (e.g. the TCAM's
//     appended tail) stays below a fraction of the committed row count,
//     so repeated single-rule commits are microseconds each and heavy
//     churn amortizes into one clean rebuild.
//   * TableCommitStats — per-table control-plane accounting (commit
//     count, delta vs full split, rows patched, last commit latency),
//     surfaced through the `table.commit_ns` / `table.delta_rows` /
//     `table.full_recompiles` telemetry meters (telemetry/metrics.hpp).
//
// The log lives in the table (single mutator thread, never read by the
// data plane); published snapshots stay immutable. See
// docs/ARCHITECTURE.md, "Incremental commit".
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace analognf {

// Kind of a staged mutation, for accounting and tests.
enum class TableDeltaOp : std::uint8_t {
  kInsert,  // a new row at a (possibly reused) stable index
  kErase,   // an existing row tombstoned
  kPatch,   // an existing row's payload reprogrammed in place
};

// Staged-mutation log between two commits. Single-writer (the table's
// mutator thread); cleared by Commit(). Dedup is a generation-stamped
// vector indexed by row — Clear() must be O(1), not O(capacity): row
// indices are dense and an unordered_set's clear() walks its whole
// bucket array, which after a million-row initial build costs more per
// commit than the delta patch itself.
class TableDelta {
 public:
  // Notes one staged mutation on row `index`.
  void Note(TableDeltaOp op, std::size_t index) {
    ++op_count_;
    if (op == TableDeltaOp::kInsert) ++inserts_;
    if (op == TableDeltaOp::kErase) ++erases_;
    if (op == TableDeltaOp::kPatch) ++patches_;
    if (index >= stamp_.size()) stamp_.resize(index + 1, 0);
    if (stamp_[index] != gen_) {
      stamp_[index] = gen_;
      touched_.push_back(index);
    }
  }
  bool empty() const { return op_count_ == 0; }
  // Total staged operations (a row touched twice counts twice).
  std::size_t op_count() const { return op_count_; }
  std::size_t inserts() const { return inserts_; }
  std::size_t erases() const { return erases_; }
  std::size_t patches() const { return patches_; }
  // Unique touched row indices in first-touch order. Applying each
  // index's *final* state (erase-if-present, then insert-if-live) in
  // this order reproduces the full recompile exactly: per-index end
  // state is all that survives a commit, and engines resolve winners by
  // explicit (priority, index) keys, never by patch order.
  const std::vector<std::size_t>& touched() const { return touched_; }

  void Clear() {
    touched_.clear();
    if (++gen_ == 0) {  // generation wrap: stale stamps must not collide
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      gen_ = 1;
    }
    op_count_ = inserts_ = erases_ = patches_ = 0;
  }

 private:
  std::vector<std::size_t> touched_;
  std::vector<std::uint32_t> stamp_;  // stamp_[row] == gen_ <=> noted
  std::uint32_t gen_ = 1;
  std::size_t op_count_ = 0;
  std::size_t inserts_ = 0;
  std::size_t erases_ = 0;
  std::size_t patches_ = 0;
};

// When is patching a cloned snapshot cheaper than recompiling it?
struct DeltaCommitPolicy {
  // Below this many committed rows a full recompile is already
  // microseconds; the delta machinery would only add bookkeeping.
  std::size_t min_rows = 256;
  // The staged set plus the engine's accumulated overlay must stay
  // below this fraction of the committed row count. 1/16 keeps the
  // TCAM's unsorted tail (scanned linearly per search) and erased-slot
  // bitmap a rounding error next to the compiled core.
  double max_delta_fraction = 1.0 / 16.0;
  // Absolute overlay cap, so a huge table cannot grow a tail whose
  // linear scan erodes the pruned tier's search budget.
  std::size_t max_delta_rows = 4096;

  // `overlay_rows`: rows the published snapshot already carries outside
  // its compiled core (appended tail + erased slots for the TCAM; 0 for
  // engines whose patches fold in exactly, like the flat LPM).
  bool UseDelta(std::size_t staged_rows, std::size_t committed_rows,
                std::size_t overlay_rows) const {
    if (committed_rows < min_rows) return false;
    const std::size_t total = staged_rows + overlay_rows;
    if (total > max_delta_rows) return false;
    return static_cast<double>(total) <=
           max_delta_fraction * static_cast<double>(committed_rows);
  }

  // A policy that never takes the delta path (every commit recompiles).
  // Differential tests pin reference tables to this.
  static DeltaCommitPolicy Disabled() {
    DeltaCommitPolicy p;
    p.max_delta_rows = 0;
    return p;
  }
};

// Control-plane cost accounting, per table. Mutated only by Commit()
// (single controller thread); read by tests, benches and telemetry.
struct TableCommitStats {
  std::uint64_t commits = 0;           // Commit() calls that published
  std::uint64_t delta_commits = 0;     // took the patch path
  std::uint64_t full_recompiles = 0;   // rebuilt the snapshot from scratch
  std::uint64_t delta_rows = 0;        // rows patched across delta commits
  std::uint64_t last_commit_ns = 0;    // wall time of the latest commit
  bool last_was_delta = false;
};

}  // namespace analognf
