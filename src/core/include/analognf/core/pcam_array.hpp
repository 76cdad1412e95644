// pCAM words and tables: analog match-action storage (Fig. 4b, Fig. 5).
//
// A word is one stored policy: a row of hardware pCAM cells, one per
// match field, whose outputs multiply into the row's match degree (the
// series composition of Fig. 4b). A table is a set of words with
// actions; a search evaluates every row in parallel — like a TCAM, but
// returning a *degree* of match per row instead of hit/miss, which is
// what lets cognitive functions find "the closely matching stored
// policies for an incoming query with zero [exact] matches" (RQ1).
//
// Searches run on a PcamSearchEngine snapshot (pcam_search_engine.hpp):
// a structure-of-arrays mirror of every cell's effective transfer
// function that evaluates whole columns per probe, dirty-tracked so that
// Insert/ProgramField refresh only the touched rows.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analognf/common/rng.hpp"
#include "analognf/common/table_delta.hpp"
#include "analognf/core/pcam_hardware.hpp"
#include "analognf/core/pcam_search_engine.hpp"

namespace analognf::core {

// One stored policy row.
class PcamWord {
 public:
  // One cell per field. `config` applies to every cell; per-cell seeds
  // are derived so device variation differs across cells.
  PcamWord(const std::vector<PcamParams>& fields,
           const HardwarePcamConfig& config);

  std::size_t width() const { return cells_.size(); }

  // Evaluates all fields against `inputs` (size must equal width) and
  // returns the product of cell outputs plus total energy. The combined
  // region is the worst cell region under RegionSeverity (a single
  // deterministically mismatching field outranks any skirt hit).
  PcamEvalResult Evaluate(const std::vector<double>& inputs);

  // Reprograms field `index`.
  void ProgramField(std::size_t index, const PcamParams& params);

  HardwarePcamCell& cell(std::size_t index) { return cells_.at(index); }
  const HardwarePcamCell& cell(std::size_t index) const {
    return cells_.at(index);
  }

 private:
  std::vector<HardwarePcamCell> cells_;
};

// Result of a table search.
struct PcamTableResult {
  std::size_t row_index = 0;
  std::uint32_t action = 0;
  double match_degree = 0.0;  // product of cell outputs for the best row
  double energy_j = 0.0;      // whole-array search energy
};

// Analog match-action table.
class PcamTable {
 public:
  struct Row {
    std::string label;
    std::vector<PcamParams> fields;
    std::uint32_t action = 0;
  };

  // `field_count` fixes the table width; every row must match it.
  // Searches run on the calling thread. The search-line channel must be
  // stateless (ChannelParams::IsStateless): a table search is one
  // stateless parallel analog step. Throws std::invalid_argument
  // otherwise.
  PcamTable(std::size_t field_count, HardwarePcamConfig config);

  std::size_t field_count() const { return field_count_; }
  std::size_t size() const { return words_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  // Read access to a stored word (diagnostics and tests).
  const PcamWord& word(std::size_t index) const { return words_.at(index); }

  // Adds a row; returns its index. Stages: searches throw until the
  // next Commit().
  std::size_t Insert(Row row);

  // Publishes staged mutations (Insert / ProgramField) into the
  // engine's search snapshot — the same stage-then-Commit() contract as
  // TcamTable / LpmTable: any search between a mutation and Commit()
  // throws std::logic_error. Unlike the TCAM tables there is no
  // RCU-published snapshot to share across threads: pCAM stays
  // single-writer (searches update the replay memo and energy total).
  // Commits are incremental — only the dirty rows refresh — and
  // accounted in commit_stats(): a commit whose staged set touched a
  // strict subset of the rows counts as a delta commit; first-build
  // commits count as full recompiles (common/table_delta.hpp).
  void Commit();
  bool NeedsCommit() const;
  // Control-plane commit accounting (delta vs full split, rows patched,
  // last commit latency).
  const TableCommitStats& commit_stats() const { return commit_stats_; }

  // Full-array search: every row evaluates `inputs`; the highest match
  // degree wins (ties: lowest index). Returns nullopt only for an empty
  // table. Energy covers all rows (they all saw the search voltage).
  // Throws std::logic_error if mutations are staged uncommitted.
  std::optional<PcamTableResult> Search(const std::vector<double>& inputs);

  // Batched search, with the queries packed row-major (size = k *
  // field_count): one snapshot refresh and shared scratch buffers across
  // all probes. Returns one result per query (empty if the table is
  // empty); last_degrees() afterwards holds the final query's per-row
  // degrees.
  std::vector<PcamTableResult> SearchBatchFlat(
      const std::vector<double>& queries_flat);

  // Allocation-free core of SearchBatchFlat: `queries_flat` points at
  // query_count x field_count voltages; `results` is cleared and
  // refilled (its capacity persists across calls, so a long-lived
  // caller buffer makes the steady state allocation-free). Identical
  // results to SearchBatchFlat.
  void SearchBatchFlatInto(const double* queries_flat,
                           std::size_t query_count,
                           std::vector<PcamTableResult>& results);

  // Per-row degrees of the last Search() (diagnostics / soft selection).
  const std::vector<double>& last_degrees() const { return last_degrees_; }

  // Probabilistic action selection: rows weighted by match degree
  // (the "probable match" semantics of RQ1 turned into a decision).
  // Returns nullopt if all degrees are zero or the table is empty.
  std::optional<PcamTableResult> SampleByDegree(
      const std::vector<double>& inputs, analognf::RandomStream& rng);

  // Deterministic core of SampleByDegree, exposed for tests and replay:
  // `unit_draw` in [0, 1) selects a row by cumulative degree mass;
  // values >= 1 exercise the numerical-tail fallback (the arg-max row).
  std::optional<PcamTableResult> SampleWithDraw(
      const std::vector<double>& inputs, double unit_draw);

  // Reprogram one field of one row. Stages: searches throw until the
  // next Commit().
  void ProgramField(std::size_t row, std::size_t field,
                    const PcamParams& params);

  double ConsumedEnergyJ() const { return consumed_energy_j_; }
  // Search() calls the replay memo served (diagnostics and tests).
  std::uint64_t replays() const { return replays_; }

  // Registers `<prefix>.searches/.rows_scanned/.recompiles` in
  // `registry` and binds the search engine to them.
  void BindTelemetry(telemetry::MetricsRegistry& registry,
                     const std::string& prefix);

 private:
  void CheckArity(std::size_t got) const;
  void RequireCommitted() const;  // throws std::logic_error when staged
  PcamTableResult MakeResult(const PcamSearchOutcome& outcome) const;
  std::optional<PcamTableResult> PickByMass(const PcamTableResult& best,
                                            double unit_draw,
                                            double total) const;

  std::size_t field_count_;
  HardwarePcamConfig config_;
  std::vector<Row> rows_;
  std::vector<PcamWord> words_;
  PcamSearchEngine engine_;
  std::vector<double> last_degrees_;
  std::vector<PcamSearchOutcome> batch_outcomes_;  // scratch
  double consumed_energy_j_ = 0.0;
  std::uint64_t next_seed_salt_ = 1;
  TableDelta delta_;  // staged-mutation log, cleared by Commit()
  TableCommitStats commit_stats_;
  telemetry::TableCommitCounters commit_telemetry_;
  // Single-entry search memo: Search() is a deterministic function of
  // (snapshot, query), so a bitwise-identical (SameBits) repeat of the
  // previous query can skip the array scan and replay the cached outcome
  // — same degrees (still in last_degrees_), same energy accumulation,
  // same telemetry. Invalidated by any mutation (Insert/ProgramField)
  // and by batch searches, which overwrite
  // last_degrees_. The flow-sticky load balancer queries one constant
  // voltage vector per pick, so this turns its per-packet search into a
  // degree-mass sample.
  bool replay_ok_ = false;
  std::vector<double> last_query_;
  PcamSearchOutcome last_outcome_;
  std::uint64_t replays_ = 0;
};

}  // namespace analognf::core
