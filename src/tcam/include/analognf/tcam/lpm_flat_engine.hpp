// DIR-24-8 longest-prefix-match engine: the one engine behind LpmTable.
//
// The classic router layout (DPDK rte_lpm's DIR-24-8): a flat
// direct-indexed table over the top 24 address bits plus 256-slot /8
// extension pages for the sliver of prefixes longer than /24. A lookup
// is one or two dependent array reads — no tree walk — and a
// single-route change patches the handful of slots the prefix covers
// instead of rebuilding anything.
//
//   * Slot encoding: one uint64 per /24 (or /32-page) slot packing
//     [valid | extended | depth | entry_index | action]. Zero means
//     "no route".
//   * Copy-on-write pages: the direct table is 1024 lazily-allocated
//     pages of 16K slots (128 KB) behind shared_ptr. CompileDeltaFrom
//     shares every page with the base snapshot; the first write to a
//     shared page clones just that page. A single-route commit
//     therefore costs ~1K refcount bumps plus one 128 KB page copy —
//     microseconds — while readers of older snapshots keep their
//     consistent view. Exclusivity is tested with use_count()==1:
//     concurrent holders can only *release* pages (snapshot retirement),
//     never acquire them, so a momentarily-stale count errs toward a
//     harmless extra clone.
//   * Page fills: every direct page carries one leaf word that all of
//     its slots read while the page is unallocated. A route that covers
//     whole pages (/10 or shorter) arbitrates into the fills of the
//     null pages it spans instead of writing 16K slots each, so a /0
//     default route costs 1024 word writes, not 128 MB; the first write
//     into a null page starts it from its fill. Every live route that
//     touches a null page covers it whole (a partial one would have
//     allocated it), so the fill is always that page's best route.
//   * Paged extension directory: tbl8 pointers sit behind the same
//     copy-on-write treatment, in 512-pointer directory pages. A flat
//     shared_ptr vector would make CompileDeltaFrom O(#tbl8s) refcount
//     bumps — at 1M routes with ~5% deep prefixes that alone is ~50K
//     atomic ops per commit, dwarfing the actual patch work.
//   * Arbitration: every write, fills included, resolves (depth desc,
//     entry_index asc) — the TCAM priority encoder's order for
//     priority = prefix length — so patch order never matters and delta
//     commits answer every lookup exactly as a from-scratch Compile.
//   * Withdrawals: PatchErase rewrites the withdrawn route's slots and
//     fills with the best surviving route covering its prefix (the
//     owning table computes it from its authoritative prefix map).
//     Pages are never freed and extension pages never un-extended by
//     patches; full recompiles rebuild clean.
//
// Concurrency contract: mirror of TcamSearchEngine — compiled by the
// owning table's Commit(), immutable once published, LookupBatch const
// and freely concurrent, std::logic_error before compilation.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analognf/tcam/tcam_search_engine.hpp"
#include "analognf/telemetry/metrics.hpp"

namespace analognf::tcam {

class LpmFlatEngine {
 public:
  struct Route {
    std::uint32_t value = 0;
    int prefix_len = 0;  // [0, 32]
    std::uint32_t action = 0;
    std::size_t entry_index = 0;
  };

  // Largest entry_index the packed slot can carry (24 bits).
  static constexpr std::size_t kMaxEntryIndex = (1u << 24) - 1;

  LpmFlatEngine() = default;

  // Full rebuild from the live route set (any order). Drops every page.
  // Throws std::invalid_argument on a prefix_len outside [0, 32] or an
  // entry_index past kMaxEntryIndex.
  void Compile(const std::vector<Route>& live_routes);

  // Delta compilation: shares `base`'s pages copy-on-write (two pointer
  // vectors and the page fills copied, no slot work). `base` must be
  // compiled; it is never mutated.
  void CompileDeltaFrom(const LpmFlatEngine& base);
  // Folds one route in, cloning each shared page it touches.
  void PatchInsert(const Route& route);
  // Removes `route`, rewriting slots it owns with `cover` — the best
  // live route whose prefix covers route's prefix (nullptr when none).
  // The owning table computes the cover from its authoritative prefix
  // map; see tcam.cpp.
  void PatchErase(const Route& route, const Route* cover);

  bool compiled() const { return compiled_; }

  // Longest matching prefix for each address (hit.priority =
  // prefix_len); out is resized to count. Throws std::logic_error before
  // the first Compile/CompileDeltaFrom.
  void LookupBatch(const std::uint32_t* addresses, std::size_t count,
                   std::vector<std::optional<TcamEngineHit>>& out) const;

  // Attaches telemetry counters; rows_scanned counts table reads (1 for
  // a /24-resolved lookup, 2 through an extension page).
  void BindTelemetry(telemetry::SearchEngineCounters counters) {
    telemetry_ = counters;
  }

 private:
  // Direct table: 2^24 slots in 1024 pages of 16K (128 KB each). The
  // page is the copy-on-write unit: small enough that one clone is a
  // few microseconds, large enough that sharing 1024 pointers is cheap.
  static constexpr int kDirectBits = 24;
  static constexpr int kPageBits = 14;
  static constexpr std::size_t kPageSlots = std::size_t{1} << kPageBits;
  static constexpr std::size_t kPageCount =
      std::size_t{1} << (kDirectBits - kPageBits);
  using DirectPage = std::array<std::uint64_t, kPageSlots>;
  using Tbl8 = std::array<std::uint64_t, 256>;  // one /24's last 8 bits
  // Extension-page pointer directory: 512 tbl8 pointers per COW page,
  // so sharing the whole directory is O(#tbl8s / 512) pointer copies.
  static constexpr int kTbl8DirBits = 9;
  static constexpr std::size_t kTbl8DirSlots = std::size_t{1} << kTbl8DirBits;
  using Tbl8Dir = std::array<std::shared_ptr<Tbl8>, kTbl8DirSlots>;

  // Packed slot layout (0 == invalid == miss):
  //   bit  63     valid
  //   bit  62     extended (direct table only): low 24 bits hold a tbl8
  //               id instead of a leaf
  //   bits 56-61  depth (prefix length 0..32 of the owning route)
  //   bits 32-55  entry_index (leaf)
  //   bits  0-31  action (leaf)
  static constexpr std::uint64_t kValidBit = std::uint64_t{1} << 63;
  static constexpr std::uint64_t kExtBit = std::uint64_t{1} << 62;
  static std::uint64_t MakeLeaf(int depth, std::size_t entry_index,
                                std::uint32_t action) {
    return kValidBit |
           (static_cast<std::uint64_t>(depth & 0x3f) << 56) |
           (static_cast<std::uint64_t>(entry_index & 0xffffff) << 32) |
           static_cast<std::uint64_t>(action);
  }
  static std::uint64_t MakeExt(std::size_t tbl8_id) {
    return kValidBit | kExtBit | static_cast<std::uint64_t>(tbl8_id & 0xffffff);
  }
  static bool IsValid(std::uint64_t slot) { return (slot & kValidBit) != 0; }
  static bool IsExt(std::uint64_t slot) { return (slot & kExtBit) != 0; }
  static int DepthOf(std::uint64_t slot) {
    return static_cast<int>((slot >> 56) & 0x3f);
  }
  static std::size_t EntryOf(std::uint64_t slot) {
    return static_cast<std::size_t>((slot >> 32) & 0xffffff);
  }
  static std::uint32_t ActionOf(std::uint64_t slot) {
    return static_cast<std::uint32_t>(slot & 0xffffffff);
  }
  static std::size_t Tbl8Of(std::uint64_t slot) {
    return static_cast<std::size_t>(slot & 0xffffff);
  }
  // Does `leaf` lose to a (depth, entry) candidate under the shared
  // (depth desc, entry asc) arbitration?
  static bool Beats(int depth, std::size_t entry, std::uint64_t leaf) {
    if (!IsValid(leaf)) return true;
    const int d = DepthOf(leaf);
    if (depth != d) return depth > d;
    return entry < EntryOf(leaf);
  }

  // A null page reads as its fill.
  std::uint64_t ReadDirect(std::size_t idx24) const {
    const std::size_t page_idx = idx24 >> kPageBits;
    const DirectPage* page = pages_[page_idx].get();
    return page != nullptr ? (*page)[idx24 & (kPageSlots - 1)]
                           : fills_[page_idx];
  }
  const Tbl8& ReadTbl8(std::size_t tbl8_id) const {
    return *(*tbl8_dirs_[tbl8_id >> kTbl8DirBits])
                [tbl8_id & (kTbl8DirSlots - 1)];
  }
  // Copy-on-write access: allocates the page from its fill, or clones
  // it when it is shared with another snapshot.
  DirectPage& MutableDirectPage(std::size_t page_idx);
  Tbl8& MutableTbl8(std::size_t tbl8_id);
  // Appends a fresh extension page (seeded from `seed` when it is a
  // valid leaf) and returns its id, cloning a shared directory page.
  std::size_t NewTbl8(std::uint64_t seed);
  // Arbitrates `leaf` into direct slot idx24, descending into an
  // extension page when the slot holds one.
  void FoldLeafDirect(std::size_t idx24, std::uint64_t leaf);
  // Arbitrates `leaf` into every direct slot of [idx24_lo, idx24_hi):
  // into the fill of each null page the range covers whole, slot by
  // slot elsewhere.
  void FoldLeafRange(std::size_t idx24_lo, std::size_t idx24_hi,
                     std::uint64_t leaf);
  // Replaces every slot and null-page fill owned by entry `victim` in
  // [idx24_lo, idx24_hi) with `replacement` (0 or a cover leaf).
  void ReplaceOwnerDirect(std::size_t idx24_lo, std::size_t idx24_hi,
                          std::size_t victim, std::uint64_t replacement);
  void RequireCompiled() const;  // throws std::logic_error

  std::vector<std::shared_ptr<DirectPage>> pages_;  // null: reads its fill
  std::vector<std::uint64_t> fills_;  // one leaf (or 0) per direct page
  std::vector<std::shared_ptr<Tbl8Dir>> tbl8_dirs_;
  std::size_t tbl8_count_ = 0;
  bool compiled_ = false;

  telemetry::SearchEngineCounters telemetry_;
};

}  // namespace analognf::tcam
