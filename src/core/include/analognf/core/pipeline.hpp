// Multi-stage pCAM match pipeline (Fig. 4b, Fig. 6).
//
// "For multistage match-action process, multiple pCAM cells can be
// combined in series to obtain the product of deterministic and
// probabilistic matches at the output." Each stage owns one hardware
// pCAM cell and consumes one input feature; the pipeline combines stage
// outputs — product by default, with alternative fuzzy combiners for the
// shoot-out's `combiners` collection.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analognf/core/pcam_hardware.hpp"

namespace analognf::core {

enum class CombineMode {
  kProduct,        // the paper's series composition
  kMin,            // fuzzy-AND alternative
  kArithmeticMean, // linear blending
  kGeometricMean,  // scale-free product
};

std::string ToString(CombineMode mode);

// One pipeline stage: a labelled transfer function.
struct StageConfig {
  std::string label;   // e.g. "sojourn_time", "d/dt(sojourn_time)"
  PcamParams params;
};

class PcamPipeline {
 public:
  struct Result {
    double combined = 0.0;
    std::vector<double> stage_outputs;
    double energy_j = 0.0;
  };

  PcamPipeline(const std::vector<StageConfig>& stages,
               const HardwarePcamConfig& hardware,
               CombineMode mode = CombineMode::kProduct);

  // Evaluates the pipeline: inputs.size() must equal stage_count().
  Result Evaluate(const std::vector<double>& inputs);

  // Allocation-free variant: writes into `result`, reusing its
  // stage_outputs capacity. Per-packet callers (the AQM data path) use
  // this with a long-lived scratch Result.
  //
  // With every channel stateless, a bitwise repeat of the previous
  // inputs (SameBits) replays the previous result instead of
  // re-evaluating the cells. The modelled stages still perform the
  // search, so every counter advances as a real evaluation would: each
  // cell's searches() and ConsumedSearchEnergyJ(), and this pipeline's
  // ConsumedEnergyJ() and evaluations().
  void Evaluate(const std::vector<double>& inputs, Result& result);

  // Re-drives the previous evaluation's inputs without evaluating them:
  // when the replay memo holds, advances every counter exactly as
  // Evaluate() on those inputs would (each cell's searches() and search
  // energy, ConsumedEnergyJ(), evaluations(), replays()) and returns
  // true; otherwise changes nothing and returns false. The result is the
  // previous evaluation's, which the caller keeps.
  bool ReplayLast();

  // Reprograms one stage (the paper's update_pCAM(id, parameter[1:8])).
  // Drops the replay memo.
  void ProgramStage(std::size_t index, const PcamParams& params);

  std::size_t stage_count() const { return cells_.size(); }
  const StageConfig& stage(std::size_t index) const {
    return stages_.at(index);
  }
  CombineMode mode() const { return mode_; }

  // Mutable access (e.g. to Age() a cell) drops the replay memo.
  HardwarePcamCell& cell(std::size_t index) {
    replay_ok_ = false;
    return cells_.at(index);
  }
  const HardwarePcamCell& cell(std::size_t index) const {
    return cells_.at(index);
  }

  double ConsumedEnergyJ() const { return consumed_energy_j_; }
  std::uint64_t evaluations() const { return evaluations_; }
  // Evaluations the replay memo served (a subset of evaluations()).
  std::uint64_t replays() const { return replays_; }

 private:
  std::vector<StageConfig> stages_;
  std::vector<HardwarePcamCell> cells_;
  CombineMode mode_;
  // Channel statelessness is fixed at construction (ChannelParams never
  // change); caching the conjunction lets Evaluate() pick the inline
  // per-cell fast path without a per-call scan.
  bool all_stateless_ = false;
  double consumed_energy_j_ = 0.0;
  std::uint64_t evaluations_ = 0;
  std::uint64_t replays_ = 0;
  // Single-entry replay memo: with all channels stateless, Evaluate() is
  // a deterministic function of (cell programs, inputs). Set by every
  // stateless evaluation; dropped by ProgramStage() and the mutable
  // cell() accessor. It serves Evaluate() on a bitwise repeat and
  // ReplayLast(). The AQM replays a repeated decision through
  // ReplayLast(); its Evaluate() hits when the decision's inputs moved
  // but its quantised voltages did not (an admitted packet smaller than
  // one DAC step of occupancy).
  bool replay_ok_ = false;
  std::vector<double> last_inputs_;
  Result last_result_;
};

}  // namespace analognf::core
