// Vectorized batched pCAM search engine.
//
// Real analog CAM hardware evaluates every stored row in parallel on a
// single search voltage (Li et al., "Analog content addressable memories
// with memristors"). The object-per-cell model in pcam_array.hpp is the
// right abstraction for programming and aging, but walking it row by row
// costs two exponentials (device conductances) and a virtual-ish branchy
// transfer evaluation per cell per search. This engine restores the
// hardware's all-rows-at-once shape in software:
//
//   * Snapshot: the effective (post-quantisation) transfer parameters,
//     derived slope intercepts and device conductance sums of every cell
//     are mirrored into a structure-of-arrays, column-major layout — one
//     contiguous array per parameter per field, indexed by row. The
//     five-region piecewise-linear map then evaluates as branch-light
//     select chains over whole columns that the compiler auto-vectorizes.
//   * Dirty tracking: Insert/ProgramField on the owning table
//     invalidate only the touched rows; a search refreshes those rows
//     and reuses the rest of the snapshot untouched.
//   * Batching: SearchBatch() evaluates many probes against one snapshot
//     refresh, reusing all scratch buffers.
//   * Threading: none. A search runs on the thread that asks; the
//     hardware's row parallelism is modelled by the column layout and
//     the SIMD kernels, not by forking the sweep across cores.
//
// Semantics: the search-line channel is stateless (a pure gain, no AWGN
// and no crosstalk; PcamTable rejects any other), so a search is one
// stateless parallel analog step, as in the aCAM of Li et al., and the
// engine reproduces the scalar PcamWord walk bit-for-bit modulo
// floating-point association in the energy total.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analognf/core/pcam_hardware.hpp"
#include "analognf/telemetry/metrics.hpp"

namespace analognf::core {

class PcamWord;

// One query's outcome. Per-row degrees land in the caller's buffer.
struct PcamSearchOutcome {
  std::size_t best_row = 0;
  double best_degree = 0.0;
  double energy_j = 0.0;  // whole-array energy for this probe
};

class PcamSearchEngine {
 public:
  PcamSearchEngine(std::size_t field_count,
                   const HardwarePcamConfig& hardware);

  // --- snapshot maintenance (driven by the owning PcamTable) ----------
  void AppendRow();                     // grow columns; new row is dirty
  void InvalidateRow(std::size_t row);  // e.g. after ProgramField

  std::size_t rows() const { return rows_; }
  std::size_t field_count() const { return field_count_; }

  // Rebuilds the dirty snapshot rows now, off the hot path, so the next
  // search pays no refresh. Searches still refresh lazily when needed
  // (the table is single-writer), so this is a latency optimization
  // point, not a correctness requirement.
  void CommitRows(const std::vector<PcamWord>& words);
  bool NeedsRefresh() const { return any_dirty_; }

  // --- search ---------------------------------------------------------
  // One probe. `query` holds field_count() voltages; `degrees` is
  // resized to rows() and filled with per-row match degrees. `words` is
  // the owning table's row storage, read to refresh dirty rows. A
  // deterministic function of (snapshot, query). Requires rows() > 0.
  PcamSearchOutcome Search(const std::vector<PcamWord>& words,
                           const double* query, std::vector<double>& degrees);

  // `count` probes, row-major (count x field_count). Fills `outcomes`
  // (one per probe) and leaves the final probe's per-row degrees in
  // `degrees`. Requires rows() > 0 and count > 0.
  void SearchBatch(const std::vector<PcamWord>& words, const double* queries,
                   std::size_t count, std::vector<PcamSearchOutcome>& outcomes,
                   std::vector<double>& degrees);

  // Telemetry accounting for a replayed search (PcamTable memoized an
  // identical probe): the modelled hardware still drove the
  // whole array, so the counters advance exactly as Search() would.
  void NoteReplaySearch() {
    telemetry_.searches.Inc();
    telemetry_.rows_scanned.Inc(rows_);
  }

  // Attaches telemetry counters (searches, rows_scanned, recompiles —
  // the last counts dirty-row snapshot refreshes). Unbound handles are
  // no-ops; telemetry never alters results or energy.
  void BindTelemetry(telemetry::SearchEngineCounters counters) {
    telemetry_ = counters;
  }

 private:
  // Column-major snapshot of one field across all rows: index = row.
  struct FieldColumn {
    std::vector<double> m1, m2, m3, m4;  // effective thresholds
    std::vector<double> sa, sb;          // skirt slopes
    std::vector<double> ia, ib;          // precomputed skirt intercepts
    std::vector<double> pmin, pmax;      // output rails
    std::vector<double> g_sum;           // G_lo + G_hi per cell [S]
  };

  void Refresh(const std::vector<PcamWord>& words);
  void RefreshRow(const std::vector<PcamWord>& words, std::size_t row);

  // One probe as whole-column passes over every row.
  void SearchColumns(const double* query, std::vector<double>& degrees,
                     PcamSearchOutcome& out);

  std::size_t field_count_;
  double read_time_s_;
  double line_gain_;

  std::size_t rows_ = 0;
  std::vector<FieldColumn> columns_;     // one per field
  std::vector<double> field_g_total_;    // per-field sum of g_sum
  std::vector<std::uint8_t> dirty_;      // per-row
  // Dirty rows in invalidation order (deduped via dirty_), so a refresh
  // after a single reprogram touches one row instead of scanning every
  // per-row flag.
  std::vector<std::size_t> dirty_rows_;
  bool any_dirty_ = false;

  // Scratch reused across calls (never shrinks).
  std::vector<double> line_v_;           // per-field line voltages
  std::vector<double> batch_line_, batch_deg_;

  telemetry::SearchEngineCounters telemetry_;
};

}  // namespace analognf::core
