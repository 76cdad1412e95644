// Pruning classifier for the compiled TCAM engine (rte_acl-style
// field-split bitmap intersection).
//
// At Compile() time the key is split into 8-bit chunks. For each chunk
// worth indexing, a 256-entry table of slot bitsets is built: bucket v
// names every slot whose pattern is compatible with chunk value v
// (wildcard bits put the slot in every bucket they span). A search then
// extracts the selected chunk bytes from the packed key, ANDs the
// corresponding bitmap rows 64-bit-word by word (4 words per step, with
// AVX2 when available) and only the surviving candidate slots are
// verified against the mask/value lanes. Since slots are priority-sorted
// and candidates are a superset of the true matches, the first verified
// survivor in ascending slot order is exactly the (priority desc, index
// asc) winner of the full scan.
//
// Chunk selection is a compile-time heuristic, computed analytically
// from the patterns without building any tables: a chunk's expected
// candidate density under a uniform random key is
//   mean over slots of 2^(wildcard bits in chunk) / 2^(chunk bits),
// and only selective chunks (density <= 0.7) are indexed, best first,
// up to kMaxChunks. When the rule set is tiny (< min_slots) or so
// wildcard-heavy that the product of selected densities stays above
// 0.5, the classifier deactivates and the engine keeps the plain full
// scan — the tier actually chosen is visible via
// TcamSearchEngine::tier() and recorded per snapshot.
//
// A compiled classifier is immutable; SelectRows is const and touches no
// shared mutable state, so it follows the engine's concurrency contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analognf/tcam/ternary.hpp"

namespace analognf::tcam {

struct TcamClassifierConfig {
  // Below this many compiled slots the linear scan wins outright.
  std::size_t min_slots = 48;
};

class TcamClassifier {
 public:
  // Upper bound on indexed chunks.
  static constexpr std::size_t kMaxChunks = 8;

  explicit TcamClassifier(TcamClassifierConfig config = {})
      : config_(config) {}

  // Builds (or deactivates) the bitmap index for the priority-sorted
  // slot patterns. Patterns must all have width key_width.
  void Compile(const std::vector<const TernaryWord*>& slot_patterns,
               std::size_t key_width);
  void Reset();

  bool active() const { return active_; }
  std::size_t chunk_count() const { return chunk_index_.size(); }
  // Expected surviving candidate fraction under uniform random keys
  // (product of selected chunk densities); 1.0 when inactive.
  double expected_density() const { return expected_density_; }
  // Words per bitmap row: ceil(slots/64) rounded up to a multiple of 4
  // (zero-padded) so intersection always runs in 4-word steps.
  std::size_t words_per_row() const { return words_per_row_; }

  // Bitmap rows for the key's selected chunk values; fills
  // rows[0 .. chunk_count()).
  void SelectRows(const std::uint64_t* key_lanes,
                  const std::uint64_t** rows) const {
    for (std::size_t k = 0; k < chunk_index_.size(); ++k) {
      const std::size_t bit0 = chunk_index_[k] * 8;
      // 8-aligned chunks never straddle a 64-bit lane.
      const std::size_t v = (key_lanes[bit0 >> 6] >> (bit0 & 63)) & 0xffu;
      rows[k] = bitmaps_.data() + (k * 256 + v) * words_per_row_;
    }
  }

 private:
  TcamClassifierConfig config_;
  bool active_ = false;
  std::size_t words_per_row_ = 0;
  double expected_density_ = 1.0;
  std::vector<std::size_t> chunk_index_;  // selected -> key chunk id
  std::vector<std::uint64_t> bitmaps_;    // [chunk][value][word] flattened
};

}  // namespace analognf::tcam
