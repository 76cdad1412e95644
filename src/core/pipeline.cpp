#include "analognf/core/pipeline.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf::core {

std::string ToString(CombineMode mode) {
  switch (mode) {
    case CombineMode::kProduct:
      return "product";
    case CombineMode::kMin:
      return "min";
    case CombineMode::kArithmeticMean:
      return "mean";
    case CombineMode::kGeometricMean:
      return "geomean";
  }
  return "unknown";
}

PcamPipeline::PcamPipeline(const std::vector<StageConfig>& stages,
                           const HardwarePcamConfig& hardware,
                           CombineMode mode)
    : stages_(stages), mode_(mode) {
  if (stages.empty()) {
    throw std::invalid_argument("PcamPipeline: no stages");
  }
  cells_.reserve(stages.size());
  HardwarePcamConfig cell_config = hardware;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    cell_config.seed = hardware.seed + 0x51a9e * (i + 1);
    cells_.emplace_back(stages[i].params, cell_config);
  }
  all_stateless_ = true;
  for (const HardwarePcamCell& cell : cells_) {
    all_stateless_ = all_stateless_ && cell.stateless();
  }
}

PcamPipeline::Result PcamPipeline::Evaluate(
    const std::vector<double>& inputs) {
  Result result;
  Evaluate(inputs, result);
  return result;
}

void PcamPipeline::Evaluate(const std::vector<double>& inputs,
                            Result& result) {
  if (inputs.size() != cells_.size()) {
    throw std::invalid_argument("PcamPipeline::Evaluate: arity mismatch");
  }
  if (replay_ok_ && SameBits(inputs, last_inputs_)) {
    ReplayLast();
    result.combined = last_result_.combined;
    result.stage_outputs.assign(last_result_.stage_outputs.begin(),
                                last_result_.stage_outputs.end());
    result.energy_j = last_result_.energy_j;
    return;
  }
  result.combined = 0.0;
  result.energy_j = 0.0;
  result.stage_outputs.resize(cells_.size());
  if (all_stateless_) {
    // All channels are pure gains: the inline EvaluateStateless is
    // bit-identical to Evaluate and skips the cross-TU channel call.
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const PcamEvalResult r = cells_[i].EvaluateStateless(inputs[i]);
      result.stage_outputs[i] = r.output;
      result.energy_j += r.energy_j;
    }
  } else {
    for (std::size_t i = 0; i < cells_.size(); ++i) {
      const PcamEvalResult r = cells_[i].Evaluate(inputs[i]);
      result.stage_outputs[i] = r.output;
      result.energy_j += r.energy_j;
    }
  }

  switch (mode_) {
    case CombineMode::kProduct: {
      double product = 1.0;
      for (double o : result.stage_outputs) product *= o;
      result.combined = product;
      break;
    }
    case CombineMode::kMin: {
      result.combined = *std::min_element(result.stage_outputs.begin(),
                                          result.stage_outputs.end());
      break;
    }
    case CombineMode::kArithmeticMean: {
      double sum = 0.0;
      for (double o : result.stage_outputs) sum += o;
      result.combined = sum / static_cast<double>(result.stage_outputs.size());
      break;
    }
    case CombineMode::kGeometricMean: {
      double product = 1.0;
      for (double o : result.stage_outputs) product *= std::max(o, 0.0);
      result.combined = std::pow(
          product, 1.0 / static_cast<double>(result.stage_outputs.size()));
      break;
    }
  }

  consumed_energy_j_ += result.energy_j;
  ++evaluations_;
  if (all_stateless_) {
    replay_ok_ = true;
    last_inputs_.assign(inputs.begin(), inputs.end());
    last_result_.combined = result.combined;
    last_result_.stage_outputs.assign(result.stage_outputs.begin(),
                                      result.stage_outputs.end());
    last_result_.energy_j = result.energy_j;
  }
}

bool PcamPipeline::ReplayLast() {
  if (!replay_ok_) return false;
  for (HardwarePcamCell& cell : cells_) cell.NoteReplaySearch();
  consumed_energy_j_ += last_result_.energy_j;
  ++evaluations_;
  ++replays_;
  return true;
}

void PcamPipeline::ProgramStage(std::size_t index,
                                const PcamParams& params) {
  replay_ok_ = false;
  cells_.at(index).Program(params);
  stages_.at(index).params = params;
}

}  // namespace analognf::core
