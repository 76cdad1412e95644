// Probabilistic associative memory on a memristor crossbar.
//
// The paper's companion work (PAmM [44]: "Memristor-based Probabilistic
// Associative Memory for Neuromorphic Network Functions") recalls stored
// patterns by analog similarity instead of exact address. Here: patterns
// are stored as conductance columns of a crossbar; a probe drives the
// rows, and each column's output current is the analog dot product with
// its stored pattern — one in-memory step for all patterns. Recall is
// the best cosine similarity; probabilistic recall samples among
// candidates weighted by similarity, the associative analogue of the
// pCAM's probable matches.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analognf/analog/crossbar.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/device/memristor.hpp"

namespace analognf::cognitive {

struct AssociativeMemoryConfig {
  // Pattern dimensionality (rows of the crossbar).
  std::size_t dimensions = 8;
  // Maximum number of storable patterns (columns).
  std::size_t capacity = 16;
  // Its LRS conductance must reach AssociativeMemory::kConductanceUnitSiemens.
  device::MemristorParams device = device::MemristorParams::NbSrTiO3();
  std::uint64_t seed = 0xa550c;

  void Validate() const;  // throws std::invalid_argument
};

// One recall result.
struct RecallResult {
  std::size_t index = 0;
  std::string label;
  // Cosine similarity between probe and stored pattern, in [0, 1] for
  // non-negative patterns.
  double similarity = 0.0;
};

class AssociativeMemory {
 public:
  // Conductance representing pattern value 1.0 [S].
  static constexpr double kConductanceUnitSiemens = 1.0e-9;

  explicit AssociativeMemory(AssociativeMemoryConfig config);

  std::size_t size() const { return labels_.size(); }
  std::size_t capacity() const { return config_.capacity; }
  std::size_t dimensions() const { return config_.dimensions; }

  // Stores a pattern (values in [0, 1], size == dimensions). Returns its
  // index. Throws std::length_error when full.
  std::size_t Store(const std::string& label,
                    const std::vector<double>& pattern);

  // Deterministic recall: the stored pattern with the highest cosine
  // similarity to the probe, if it reaches `min_similarity`.
  std::optional<RecallResult> Recall(const std::vector<double>& probe,
                                     double min_similarity = 0.0);

  // Probabilistic recall: samples among stored patterns with probability
  // proportional to max(similarity - min_similarity, 0).
  std::optional<RecallResult> SampleRecall(const std::vector<double>& probe,
                                           analognf::RandomStream& rng,
                                           double min_similarity = 0.0);

  // Similarities of the last Recall/SampleRecall, by pattern index.
  const std::vector<double>& last_similarities() const {
    return last_similarities_;
  }

  double ConsumedEnergyJ() const { return xbar_.ConsumedEnergyJ(); }

 private:
  void ComputeSimilarities(const std::vector<double>& probe);

  AssociativeMemoryConfig config_;
  analog::Crossbar xbar_;
  std::vector<std::string> labels_;
  std::vector<double> pattern_norms_;
  std::vector<double> last_similarities_;
};

}  // namespace analognf::cognitive
