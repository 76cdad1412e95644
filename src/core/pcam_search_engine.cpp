#include "analognf/core/pcam_search_engine.hpp"

#include <algorithm>
#include <cassert>

#include "analognf/common/simd.hpp"
#include "analognf/core/pcam_array.hpp"

namespace analognf::core {

PcamSearchEngine::PcamSearchEngine(std::size_t field_count,
                                   const HardwarePcamConfig& hardware)
    : field_count_(field_count),
      read_time_s_(hardware.device.read_time_s),
      line_gain_(hardware.channel.line_gain),
      columns_(field_count),
      field_g_total_(field_count, 0.0) {}

void PcamSearchEngine::AppendRow() {
  for (FieldColumn& c : columns_) {
    c.m1.push_back(0.0);
    c.m2.push_back(0.0);
    c.m3.push_back(0.0);
    c.m4.push_back(0.0);
    c.sa.push_back(0.0);
    c.sb.push_back(0.0);
    c.ia.push_back(0.0);
    c.ib.push_back(0.0);
    c.pmin.push_back(0.0);
    c.pmax.push_back(0.0);
    c.g_sum.push_back(0.0);
  }
  dirty_.push_back(1);
  dirty_rows_.push_back(rows_);
  ++rows_;
  any_dirty_ = true;
}

void PcamSearchEngine::InvalidateRow(std::size_t row) {
  if (dirty_.at(row) == 0) {
    dirty_[row] = 1;
    dirty_rows_.push_back(row);
  }
  any_dirty_ = true;
}

void PcamSearchEngine::RefreshRow(const std::vector<PcamWord>& words,
                                  std::size_t row) {
  const PcamWord& word = words[row];
  assert(word.width() == field_count_);
  for (std::size_t f = 0; f < field_count_; ++f) {
    const HardwarePcamCell& cell = word.cell(f);
    const PcamParams& p = cell.effective_params();
    FieldColumn& c = columns_[f];
    c.m1[row] = p.m1;
    c.m2[row] = p.m2;
    c.m3[row] = p.m3;
    c.m4[row] = p.m4;
    c.sa[row] = p.sa;
    c.sb[row] = p.sb;
    // The skirt intercepts of PcamCell::Evaluate, hoisted out of the
    // per-search loop; the division happens once per (re)program.
    c.ia[row] = (p.m2 * p.pmin - p.m1 * p.pmax) / (p.m2 - p.m1);
    c.ib[row] = (p.m4 * p.pmax - p.m3 * p.pmin) / (p.m4 - p.m3);
    c.pmin[row] = p.pmin;
    c.pmax[row] = p.pmax;
    c.g_sum[row] = cell.ConductanceSumS();
  }
  dirty_[row] = 0;
}

void PcamSearchEngine::CommitRows(const std::vector<PcamWord>& words) {
  Refresh(words);
}

void PcamSearchEngine::Refresh(const std::vector<PcamWord>& words) {
  if (!any_dirty_) return;
  telemetry_.recompiles.Inc();
  assert(words.size() == rows_);
  for (const std::size_t r : dirty_rows_) RefreshRow(words, r);
  dirty_rows_.clear();
  // Per-field conductance totals feed the whole-array energy term of
  // stateless searches (energy = sum_f V_f^2 * t_read * sum_r G). A full
  // recompute keeps the total deterministic regardless of which rows
  // were refreshed.
  for (std::size_t f = 0; f < field_count_; ++f) {
    const std::vector<double>& g = columns_[f].g_sum;
    double total = 0.0;
    for (double v : g) total += v;
    field_g_total_[f] = total;
  }
  any_dirty_ = false;
}

void PcamSearchEngine::SearchColumns(const double* query,
                                     std::vector<double>& degrees,
                                     PcamSearchOutcome& out) {
  line_v_.resize(field_count_);
  double energy = 0.0;
  for (std::size_t f = 0; f < field_count_; ++f) {
    const double lv = query[f] * line_gain_;
    line_v_[f] = lv;
    // All rows of a field see the same line voltage, so the array's read
    // energy collapses to one multiply per field.
    energy += lv * lv * read_time_s_ * field_g_total_[f];
  }
  out.energy_j = energy;

  degrees.assign(rows_, 1.0);
  double* deg = degrees.data();
  for (std::size_t f = 0; f < field_count_; ++f) {
    const FieldColumn& c = columns_[f];
    // Explicit SIMD column sweep (4 rows per AVX2 iteration), same
    // arithmetic as PcamCell::Evaluate in every region — the scalar
    // fallback and the AVX2 kernel are bit-identical by construction
    // (common/simd.hpp).
    const simd::PcamColumnSpan span{
        c.m1.data(), c.m2.data(), c.m3.data(), c.m4.data(),
        c.sa.data(), c.sb.data(), c.ia.data(), c.ib.data(),
        c.pmin.data(), c.pmax.data()};
    simd::PcamColumnEval(span, line_v_[f], deg, 0, rows_);
  }
  // Arg-max (ties: lowest row index).
  std::size_t best = 0;
  for (std::size_t r = 1; r < rows_; ++r) {
    if (deg[r] > deg[best]) best = r;
  }
  out.best_row = best;
  out.best_degree = deg[best];
}

PcamSearchOutcome PcamSearchEngine::Search(const std::vector<PcamWord>& words,
                                           const double* query,
                                           std::vector<double>& degrees) {
  assert(rows_ > 0);
  Refresh(words);
  // The analog array drives the search voltage onto every stored row.
  telemetry_.searches.Inc();
  telemetry_.rows_scanned.Inc(rows_);
  PcamSearchOutcome out;
  SearchColumns(query, degrees, out);
  return out;
}

void PcamSearchEngine::SearchBatch(const std::vector<PcamWord>& words,
                                   const double* queries, std::size_t count,
                                   std::vector<PcamSearchOutcome>& outcomes,
                                   std::vector<double>& degrees) {
  assert(rows_ > 0 && count > 0);
  Refresh(words);
  telemetry_.searches.Inc(count);
  telemetry_.rows_scanned.Inc(rows_ * count);
  outcomes.assign(count, PcamSearchOutcome{});

  if (count < rows_) {
    // Few queries over a tall table: N column sweeps (each SIMD over
    // rows). The final probe writes the caller's degree buffer so
    // last_degrees() semantics match sequential calls.
    batch_deg_.clear();
    for (std::size_t q = 0; q < count; ++q) {
      std::vector<double>& deg = (q + 1 == count) ? degrees : batch_deg_;
      SearchColumns(queries + q * field_count_, deg, outcomes[q]);
    }
    return;
  }
  // Many queries over a short table (the in-pipeline classifiers):
  // query-major sweep — each (row, field) cell evaluates the whole
  // query block in one SIMD pass. Per query, the arithmetic, its
  // order (energy over fields ascending, then degree products and the
  // ascending-row arg-max) and the lowest-row tie rule are exactly
  // SearchColumns's, so both layouts return bit-identical outcomes
  // and the batched pipeline stays equivalent to per-packet searches.
  batch_line_.resize(field_count_ * count);
  for (std::size_t q = 0; q < count; ++q) {
    const double* query = queries + q * field_count_;
    double energy = 0.0;
    for (std::size_t f = 0; f < field_count_; ++f) {
      const double lv = query[f] * line_gain_;
      batch_line_[f * count + q] = lv;
      energy += lv * lv * read_time_s_ * field_g_total_[f];
    }
    outcomes[q].energy_j = energy;
  }
  degrees.assign(rows_, 0.0);
  batch_deg_.resize(count);
  for (std::size_t r = 0; r < rows_; ++r) {
    std::fill(batch_deg_.begin(), batch_deg_.end(), 1.0);
    for (std::size_t f = 0; f < field_count_; ++f) {
      const FieldColumn& c = columns_[f];
      const simd::PcamCellParams params{c.m1[r], c.m2[r],   c.m3[r],
                                        c.m4[r], c.sa[r],   c.sb[r],
                                        c.ia[r], c.ib[r],   c.pmin[r],
                                        c.pmax[r]};
      simd::PcamCellEvalBatch(params, batch_line_.data() + f * count,
                              batch_deg_.data(), count);
    }
    for (std::size_t q = 0; q < count; ++q) {
      if (r == 0 || batch_deg_[q] > outcomes[q].best_degree) {
        outcomes[q].best_row = r;
        outcomes[q].best_degree = batch_deg_[q];
      }
    }
    degrees[r] = batch_deg_[count - 1];
  }
}

}  // namespace analognf::core
