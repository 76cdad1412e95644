// TCAM table: the digital match-action baseline.
//
// Models the functional behaviour (parallel ternary search with priority
// resolution) and the cost behaviour (every stored bit is searched every
// cycle, which is exactly why TCAM energy scales with table size and why
// the paper goes analog). Technology is a parameter: the transistor and
// memristor variants of Table 1 share the functional model and differ in
// per-bit search energy, latency, and the fraction of energy spent moving
// data between storage and compute (Fig. 1).
//
// Mutations (Insert/Erase) only stage changes; an explicit Commit()
// compiles them into a fresh immutable TcamTableSnapshot and publishes
// it RCU-style (common/snapshot.hpp). There is one search path: readers
// acquire the published snapshot, search its compiled engine
// (tcam_search_engine.hpp) and charge its search_energy_j per search
// cycle. They always see either the old or the new fully-compiled
// table, never a mid-recompile state; staged mutations stay invisible
// until Commit().
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analognf/common/snapshot.hpp"
#include "analognf/common/table_delta.hpp"
#include "analognf/tcam/lpm_flat_engine.hpp"
#include "analognf/tcam/tcam_search_engine.hpp"
#include "analognf/tcam/ternary.hpp"

namespace analognf::tcam {

// Cost model of one search cycle.
struct TcamTechnology {
  std::string name;
  double search_energy_per_bit_j = 0.0;
  double search_latency_s = 0.0;
  // Fraction of the per-bit energy attributable to data movement between
  // separate storage and computation units (Fig. 1). Colocalised
  // memristor designs drive this down; CMOS keeps it high (~0.9, the
  // "up to 90%" of Sec. 1).
  double data_movement_fraction = 0.0;

  void Validate() const;  // throws std::invalid_argument

  // Representative CMOS TCAM: Arsovski et al. 2013 (Table 1 col. [2]):
  // 0.58 fJ/bit/search, 1 GHz, separate SRAM-style storage.
  static TcamTechnology TransistorCmos();
  // Representative memristor TCAM: Saleh et al. 2022 "TCAmM" (Table 1
  // col. [42]) at its low-energy corner: 1 fJ/bit, 1 ns, colocalised.
  static TcamTechnology MemristorTcam();
};

// One committed, immutable compilation of a TcamTable: the engine plus
// the cost figures that were true for the committed row set. Published
// via shared_ptr; holders may search `engine` concurrently for as long
// as they keep the pointer.
struct TcamTableSnapshot {
  TcamTableSnapshot(std::size_t key_width, TcamSearchConfig config)
      : engine(key_width, config) {}

  TcamSearchEngine engine;
  // Whole-array energy of one search cycle, hit or miss: every stored
  // bit is searched.
  double search_energy_j = 0.0;
  double search_latency_s = 0.0;
  std::size_t live_rows = 0;
  std::uint64_t epoch = 0;  // 0 = the empty table published at construction
};

// Priority-resolved ternary table of fixed key width.
//
// Entry-index contract: Insert returns an index that stays valid for the
// lifetime of the table. Erase tombstones the entry in place (it stops
// matching and stops burning search energy) without shifting any other
// entry; a later Insert may reuse the tombstoned slot. entries() exposes
// the raw slot array including tombstones — check IsLive() when
// iterating it.
//
// Concurrency contract: mutations and Commit() belong to one control
// thread at a time. snapshot() may be called from any thread; the
// returned snapshot is immutable and concurrently searchable.
class TcamTable {
 public:
  struct Entry {
    TernaryWord pattern;
    std::uint32_t action = 0;
    // Higher wins; ties resolve to the lowest index (hardware priority
    // encoder order).
    std::int32_t priority = 0;
  };

  TcamTable(std::size_t key_width, TcamTechnology technology,
            TcamSearchConfig engine_config = {});

  std::size_t key_width() const { return key_width_; }
  // Live entries (tombstones excluded).
  std::size_t size() const { return live_count_; }
  // Raw slots, including tombstones.
  std::size_t slot_count() const { return entries_.size(); }
  bool IsLive(std::size_t index) const {
    return index < live_.size() && live_[index] != 0;
  }
  const TcamTechnology& technology() const { return technology_; }
  const std::vector<Entry>& entries() const { return entries_; }

  // Adds an entry; pattern width must equal key_width. Returns the
  // entry's stable index (a tombstoned slot may be reused). Staged until
  // Commit().
  std::size_t Insert(Entry entry);
  // Tombstones the entry at `index`. Throws std::out_of_range on a bad
  // index and std::invalid_argument if it is already tombstoned. Staged
  // until Commit().
  void Erase(std::size_t index);

  // True when mutations are staged that the published snapshot does not
  // reflect yet.
  bool NeedsCommit() const {
    return dirty_.load(std::memory_order_acquire);
  }
  // Publishes the staged row set atomically. No-op when clean. Runs off
  // the hot path: concurrent readers keep searching the previous
  // snapshot until the publish. When the staged set is small against the
  // committed table (engine_config_.delta_policy, see
  // common/table_delta.hpp), the new snapshot is delta-compiled — it
  // shares the previous snapshot's core and patches only the touched
  // rows — otherwise it is recompiled from scratch.
  void Commit();
  // Delta-vs-full accounting across all commits (see TableCommitStats).
  const TableCommitStats& commit_stats() const { return commit_stats_; }

  // The currently-published compilation (never null). Safe from any
  // thread.
  std::shared_ptr<const TcamTableSnapshot> snapshot() const {
    return published_.Acquire();
  }
  // Number of Commit() publishes so far (the construction-time empty
  // snapshot is epoch 0).
  std::uint64_t epoch() const { return published_.epoch(); }

  // Energy of one search cycle over the current (live) table; Commit()
  // copies it into the snapshot it publishes.
  double SearchEnergyJ() const;
  // Total stored (searchable) bits: live entries * key_width. The energy
  // model activates all of them per cycle.
  std::size_t StoredBits() const { return live_count_ * key_width_; }

  // Registers `<prefix>.searches/.rows_scanned/.recompiles` in
  // `registry` and binds the compiled engine (current and future
  // snapshots) to them. Telemetry never changes search results or
  // energy accounting.
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     const std::string& prefix);

 private:
  // Commit-time tombstone compaction (runs when the dead fraction
  // exceeds 1/4): trailing tombstoned slots are dropped outright —
  // no live index moves, so the stable-index contract holds — and
  // interior tombstones release their pattern storage while keeping
  // their slot reserved for reuse.
  void CompactTombstones();

  std::size_t key_width_;
  TcamTechnology technology_;
  TcamSearchConfig engine_config_;
  std::vector<Entry> entries_;
  std::vector<std::uint8_t> live_;      // parallel to entries_
  std::vector<std::size_t> free_list_;  // tombstoned slots, LIFO reuse
  std::size_t live_count_ = 0;

  SnapshotCell<TcamTableSnapshot> published_;
  std::atomic<bool> dirty_{false};
  std::uint64_t commits_ = 0;  // controller-thread only
  TableDelta delta_;           // staged-mutation log, controller-thread only
  TableCommitStats commit_stats_;

  telemetry::SearchEngineCounters telemetry_;
  telemetry::TableCommitCounters commit_telemetry_;
};

// Per-table LPM tuning.
struct LpmConfig {
  // When does Commit() patch the previous snapshot's pages instead of
  // rebuilding (common/table_delta.hpp)?
  DeltaCommitPolicy delta_policy;
};

// One committed, immutable compilation of an LpmTable: the DIR-24-8
// engine plus the TCAM cost figures of the committed route set. Holders
// may call engine.LookupBatch concurrently for as long as they keep the
// pointer.
struct LpmTableSnapshot {
  LpmFlatEngine engine;
  // One search cycle of the 32-bit TCAM array holding the live routes:
  // live_routes * 32 stored bits at the technology's per-bit energy.
  double search_energy_j = 0.0;
  double search_latency_s = 0.0;
  std::size_t live_routes = 0;
  std::uint64_t epoch = 0;
};

// Longest-prefix-match table for IPv4 lookup (priority = prefix length,
// the classic TCAM LPM encoding). Lookups run on the compiled DIR-24-8
// engine (lpm_flat_engine.hpp) of the published snapshot, which carries
// the cost of one search cycle of the equivalent 32-bit TCAM array.
// AddRoute / WithdrawRoute stage; Commit() publishes (same RCU
// discipline as TcamTable), patching the previous snapshot's pages when
// the staged set is small (LpmConfig::delta_policy).
//
// Route-index contract (the same as TcamTable's entry indices): an
// index stays valid until its route is withdrawn; withdrawn indices are
// reused last-in, first-out by later AddRoute calls.
class LpmTable {
 public:
  // Throws std::invalid_argument when `technology` fails Validate().
  explicit LpmTable(TcamTechnology technology, LpmConfig config = {});

  // Adds route `value/prefix_len -> action`. Staged until Commit().
  // Returns the route's stable index (for WithdrawRoute). Throws
  // std::invalid_argument on a prefix length outside [0, 32].
  std::size_t AddRoute(std::uint32_t value, int prefix_len,
                       std::uint32_t action);
  // Withdraws the route at `route_index` (as returned by AddRoute).
  // Staged until Commit(). Throws std::out_of_range on an index never
  // returned and std::invalid_argument on a withdrawn one.
  void WithdrawRoute(std::size_t route_index);

  std::size_t route_count() const { return live_count_; }
  bool NeedsCommit() const { return dirty_; }
  // Publishes the staged route set: single-route page patches when the
  // staged set passes LpmConfig::delta_policy, a full rebuild otherwise.
  void Commit();
  std::shared_ptr<const LpmTableSnapshot> snapshot() const {
    return published_.Acquire();
  }
  std::uint64_t epoch() const { return published_.epoch(); }
  const LpmConfig& config() const { return config_; }
  // Delta-vs-full accounting across all commits (see TableCommitStats).
  const TableCommitStats& commit_stats() const { return commit_stats_; }

  // Binds the compiled engine to `<prefix>.*` counters (rows_scanned
  // counts table reads, 1 or 2 per lookup) and the shared `table.*`
  // commit meters.
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     const std::string& prefix);

 private:
  // Best live route covering `route`'s prefix, excluding `route` itself
  // (already out of by_prefix_): deepest prefix wins, duplicates resolve
  // to the lowest index. nullptr when nothing covers it.
  const LpmFlatEngine::Route* FindCover(
      const LpmFlatEngine::Route& route) const;
  std::shared_ptr<LpmTableSnapshot> BuildSnapshot(
      const std::shared_ptr<const LpmTableSnapshot>& prev, bool use_delta,
      std::size_t& patched_rows);

  TcamTechnology technology_;
  LpmConfig config_;
  // Authoritative route payloads by route index, with a live flag per
  // slot and the withdrawn slots awaiting reuse (LIFO). Controller-
  // thread only, never read by the data plane.
  std::vector<LpmFlatEngine::Route> routes_;
  std::vector<std::uint8_t> live_;  // parallel to routes_
  std::vector<std::size_t> free_list_;
  std::size_t live_count_ = 0;
  // (masked value, prefix_len) -> live route indices, ascending. Feeds
  // FindCover for withdrawal patches.
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> by_prefix_;
  // Withdrawn routes staged since the last commit (payload copies:
  // routes_ slots may be reused by a later AddRoute in the same batch).
  std::vector<LpmFlatEngine::Route> staged_withdrawals_;
  TableDelta delta_;
  bool dirty_ = false;

  SnapshotCell<LpmTableSnapshot> published_;
  std::uint64_t commits_ = 0;  // controller-thread only
  TableCommitStats commit_stats_;
  telemetry::SearchEngineCounters telemetry_;
  telemetry::TableCommitCounters commit_telemetry_;
};

}  // namespace analognf::tcam
