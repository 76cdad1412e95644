#include "analognf/core/pcam_array.hpp"

#include <chrono>
#include <stdexcept>

namespace analognf::core {

namespace {

std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

PcamWord::PcamWord(const std::vector<PcamParams>& fields,
                   const HardwarePcamConfig& config) {
  if (fields.empty()) {
    throw std::invalid_argument("PcamWord: a word needs at least one field");
  }
  cells_.reserve(fields.size());
  HardwarePcamConfig cell_config = config;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    // Distinct seed per cell so variation/noise streams are independent.
    cell_config.seed = config.seed + 0x1000003 * (i + 1);
    cells_.emplace_back(fields[i], cell_config);
  }
}

PcamEvalResult PcamWord::Evaluate(const std::vector<double>& inputs) {
  if (inputs.size() != cells_.size()) {
    throw std::invalid_argument("PcamWord::Evaluate: input arity mismatch");
  }
  PcamEvalResult combined;
  combined.output = 1.0;
  combined.region = MatchRegion::kMatch;
  for (std::size_t i = 0; i < cells_.size(); ++i) {
    const PcamEvalResult r = cells_[i].Evaluate(inputs[i]);
    combined.output *= r.output;
    combined.energy_j += r.energy_j;
    // The word's region is the worst cell region (first-worst wins on
    // equal severity): a deterministic mismatch in any field outranks
    // skirt hits, which outrank matches.
    if (RegionSeverity(r.region) > RegionSeverity(combined.region)) {
      combined.region = r.region;
    }
  }
  return combined;
}

void PcamWord::ProgramField(std::size_t index, const PcamParams& params) {
  cells_.at(index).Program(params);
}

PcamTable::PcamTable(std::size_t field_count, HardwarePcamConfig config)
    : field_count_(field_count),
      config_(config),
      engine_(field_count, config_) {
  if (field_count == 0) {
    throw std::invalid_argument("PcamTable: zero field count");
  }
  config_.Validate();
  if (!config_.channel.IsStateless()) {
    throw std::invalid_argument(
        "PcamTable: the search-line channel must be stateless");
  }
}

std::size_t PcamTable::Insert(Row row) {
  if (row.fields.size() != field_count_) {
    throw std::invalid_argument("PcamTable::Insert: field arity mismatch");
  }
  HardwarePcamConfig word_config = config_;
  word_config.seed = config_.seed + 0x9e3779b9ULL * next_seed_salt_++;
  words_.emplace_back(row.fields, word_config);
  rows_.push_back(std::move(row));
  engine_.AppendRow();
  delta_.Note(TableDeltaOp::kInsert, rows_.size() - 1);
  replay_ok_ = false;
  return rows_.size() - 1;
}

void PcamTable::Commit() {
  if (!engine_.NeedsRefresh()) {
    delta_.Clear();
    return;
  }
  const std::uint64_t t0 = NowNs();
  // Only the staged (dirty) rows refresh; whether that counts as a
  // delta commit or a full recompile is pure accounting. First-build
  // commits touch every row.
  const std::size_t touched = delta_.touched().size();
  const bool was_delta = touched < words_.size();
  engine_.CommitRows(words_);
  const std::uint64_t elapsed = NowNs() - t0;
  ++commit_stats_.commits;
  commit_stats_.last_commit_ns = elapsed;
  commit_stats_.last_was_delta = was_delta;
  if (was_delta) {
    ++commit_stats_.delta_commits;
    commit_stats_.delta_rows += touched;
    commit_telemetry_.delta_rows.Inc(touched);
  } else {
    ++commit_stats_.full_recompiles;
    commit_telemetry_.full_recompiles.Inc();
  }
  commit_telemetry_.commit_ns.Inc(elapsed);
  delta_.Clear();
}

bool PcamTable::NeedsCommit() const { return engine_.NeedsRefresh(); }

void PcamTable::CheckArity(std::size_t got) const {
  if (got != field_count_) {
    throw std::invalid_argument("PcamTable::Search: input arity mismatch");
  }
}

void PcamTable::RequireCommitted() const {
  if (NeedsCommit()) {
    throw std::logic_error(
        "PcamTable: searched with uncommitted mutations — call Commit()");
  }
}

PcamTableResult PcamTable::MakeResult(
    const PcamSearchOutcome& outcome) const {
  PcamTableResult result;
  result.row_index = outcome.best_row;
  result.action = rows_[outcome.best_row].action;
  result.match_degree = outcome.best_degree;
  result.energy_j = outcome.energy_j;
  return result;
}

std::optional<PcamTableResult> PcamTable::Search(
    const std::vector<double>& inputs) {
  CheckArity(inputs.size());
  RequireCommitted();
  if (words_.empty()) {
    last_degrees_.clear();
    return std::nullopt;
  }
  if (replay_ok_ && SameBits(inputs, last_query_)) {
    // Bitwise-identical repeat of the previous query: the
    // degrees in last_degrees_ and the cached outcome are exactly what
    // the engine would recompute. The modelled array still performs the
    // search, so energy and telemetry advance as a real probe would.
    engine_.NoteReplaySearch();
    consumed_energy_j_ += last_outcome_.energy_j;
    ++replays_;
    return MakeResult(last_outcome_);
  }
  const PcamSearchOutcome outcome =
      engine_.Search(words_, inputs.data(), last_degrees_);
  consumed_energy_j_ += outcome.energy_j;
  // Search() just refreshed any dirty rows, so the snapshot is clean
  // until the next mutation (which invalidates the memo).
  replay_ok_ = true;
  last_query_.assign(inputs.begin(), inputs.end());
  last_outcome_ = outcome;
  return MakeResult(outcome);
}

std::vector<PcamTableResult> PcamTable::SearchBatchFlat(
    const std::vector<double>& queries_flat) {
  if (field_count_ == 0 || queries_flat.size() % field_count_ != 0) {
    throw std::invalid_argument(
        "PcamTable::SearchBatchFlat: size must be a multiple of "
        "field_count");
  }
  std::vector<PcamTableResult> results;
  SearchBatchFlatInto(queries_flat.data(),
                      queries_flat.size() / field_count_, results);
  return results;
}

void PcamTable::SearchBatchFlatInto(const double* queries_flat,
                                    std::size_t query_count,
                                    std::vector<PcamTableResult>& results) {
  RequireCommitted();
  results.clear();
  if (query_count == 0) return;
  if (words_.empty()) {
    last_degrees_.clear();
    return;
  }
  replay_ok_ = false;  // overwrites last_degrees_ with the final query's
  engine_.SearchBatch(words_, queries_flat, query_count, batch_outcomes_,
                      last_degrees_);
  results.reserve(query_count);
  for (const PcamSearchOutcome& outcome : batch_outcomes_) {
    consumed_energy_j_ += outcome.energy_j;
    results.push_back(MakeResult(outcome));
  }
}

std::optional<PcamTableResult> PcamTable::PickByMass(
    const PcamTableResult& best, double unit_draw, double total) const {
  double draw = unit_draw * total;
  for (std::size_t i = 0; i < last_degrees_.size(); ++i) {
    draw -= last_degrees_[i];
    if (draw <= 0.0) {
      PcamTableResult result;
      result.row_index = i;
      result.action = rows_[i].action;
      result.match_degree = last_degrees_[i];
      result.energy_j = best.energy_j;
      return result;
    }
  }
  return best;  // numerical tail: fall back to the arg-max row
}

std::optional<PcamTableResult> PcamTable::SampleByDegree(
    const std::vector<double>& inputs, analognf::RandomStream& rng) {
  auto best = Search(inputs);
  if (!best.has_value()) return std::nullopt;
  double total = 0.0;
  for (double d : last_degrees_) total += d;
  // All-zero degrees: bail out before consuming an RNG draw, so the
  // caller's stream stays aligned with the pre-engine implementation.
  if (total <= 0.0) return std::nullopt;
  return PickByMass(*best, rng.NextUniform(), total);
}

std::optional<PcamTableResult> PcamTable::SampleWithDraw(
    const std::vector<double>& inputs, double unit_draw) {
  auto best = Search(inputs);
  if (!best.has_value()) return std::nullopt;
  double total = 0.0;
  for (double d : last_degrees_) total += d;
  if (total <= 0.0) return std::nullopt;
  return PickByMass(*best, unit_draw, total);
}

void PcamTable::ProgramField(std::size_t row, std::size_t field,
                             const PcamParams& params) {
  words_.at(row).ProgramField(field, params);
  rows_.at(row).fields.at(field) = params;
  engine_.InvalidateRow(row);
  delta_.Note(TableDeltaOp::kPatch, row);
  replay_ok_ = false;
}

void PcamTable::BindTelemetry(telemetry::MetricsRegistry& registry,
                              const std::string& prefix) {
  engine_.BindTelemetry(
      telemetry::MakeSearchEngineCounters(registry, prefix));
  commit_telemetry_ = telemetry::MakeTableCommitCounters(registry);
}

}  // namespace analognf::core
