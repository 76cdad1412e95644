#include "analognf/cognitive/associative.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf::cognitive {

void AssociativeMemoryConfig::Validate() const {
  if (dimensions == 0) {
    throw std::invalid_argument("AssociativeMemoryConfig: zero dimensions");
  }
  if (capacity == 0) {
    throw std::invalid_argument("AssociativeMemoryConfig: zero capacity");
  }
  device.Validate();
  if (AssociativeMemory::kConductanceUnitSiemens > 1.0 / device.r_lrs_ohm) {
    throw std::invalid_argument(
        "AssociativeMemoryConfig: conductance unit exceeds the device's "
        "maximum conductance");
  }
}

AssociativeMemory::AssociativeMemory(AssociativeMemoryConfig config)
    : config_([&] {
        config.Validate();
        return config;
      }()),
      xbar_(config_.dimensions, config_.capacity, config_.device, nullptr,
            config_.seed) {}

std::size_t AssociativeMemory::Store(const std::string& label,
                                     const std::vector<double>& pattern) {
  if (pattern.size() != config_.dimensions) {
    throw std::invalid_argument("AssociativeMemory::Store: arity mismatch");
  }
  if (labels_.size() >= config_.capacity) {
    throw std::length_error("AssociativeMemory::Store: memory full");
  }
  double norm_sq = 0.0;
  for (double v : pattern) {
    if (v < 0.0 || v > 1.0) {
      throw std::invalid_argument(
          "AssociativeMemory::Store: pattern values must be in [0, 1]");
    }
    norm_sq += v * v;
  }
  if (norm_sq <= 0.0) {
    throw std::invalid_argument(
        "AssociativeMemory::Store: zero pattern is not storable");
  }

  const std::size_t column = labels_.size();
  const double floor_siemens = 1.0 / config_.device.r_hrs_ohm;
  for (std::size_t row = 0; row < config_.dimensions; ++row) {
    const double g = std::max(
        floor_siemens, pattern[row] * kConductanceUnitSiemens);
    xbar_.At(row, column).SetResistance(1.0 / g);
  }
  labels_.push_back(label);
  pattern_norms_.push_back(std::sqrt(norm_sq));
  return column;
}

void AssociativeMemory::ComputeSimilarities(
    const std::vector<double>& probe) {
  if (probe.size() != config_.dimensions) {
    throw std::invalid_argument("AssociativeMemory: probe arity mismatch");
  }
  double probe_norm_sq = 0.0;
  for (double v : probe) {
    if (v < 0.0) {
      throw std::invalid_argument(
          "AssociativeMemory: probe values must be non-negative");
    }
    probe_norm_sq += v * v;
  }
  last_similarities_.assign(labels_.size(), 0.0);
  if (probe_norm_sq <= 0.0 || labels_.empty()) return;
  const double probe_norm = std::sqrt(probe_norm_sq);

  // One analog step: column currents are the dot products (scaled by
  // the conductance unit).
  const std::vector<double> currents = xbar_.Multiply(probe);
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    const double dot = currents[i] / kConductanceUnitSiemens;
    last_similarities_[i] =
        std::clamp(dot / (probe_norm * pattern_norms_[i]), 0.0, 1.0);
  }
}

std::optional<RecallResult> AssociativeMemory::Recall(
    const std::vector<double>& probe, double min_similarity) {
  ComputeSimilarities(probe);
  if (labels_.empty()) return std::nullopt;
  std::size_t best = 0;
  for (std::size_t i = 1; i < last_similarities_.size(); ++i) {
    if (last_similarities_[i] > last_similarities_[best]) best = i;
  }
  if (last_similarities_[best] < min_similarity) return std::nullopt;
  return RecallResult{best, labels_[best], last_similarities_[best]};
}

std::optional<RecallResult> AssociativeMemory::SampleRecall(
    const std::vector<double>& probe, analognf::RandomStream& rng,
    double min_similarity) {
  ComputeSimilarities(probe);
  double total = 0.0;
  for (double s : last_similarities_) {
    total += std::max(s - min_similarity, 0.0);
  }
  if (total <= 0.0) return std::nullopt;
  double draw = rng.NextUniform() * total;
  for (std::size_t i = 0; i < last_similarities_.size(); ++i) {
    draw -= std::max(last_similarities_[i] - min_similarity, 0.0);
    if (draw <= 0.0) {
      return RecallResult{i, labels_[i], last_similarities_[i]};
    }
  }
  return std::nullopt;  // numerical tail; total was positive so unreachable
}

}  // namespace analognf::cognitive
