#include "analognf/tcam/tcam_classifier.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace analognf::tcam {
namespace {

// A chunk must prune at least this hard to be worth one bitmap row load
// per search.
constexpr double kMaxChunkDensity = 0.7;
// If the product of selected chunk densities (the expected surviving
// fraction) stays above this, pruning is pointless: stay linear.
constexpr double kMaxExpectedDensity = 0.5;

}  // namespace

void TcamClassifier::Reset() {
  active_ = false;
  words_per_row_ = 0;
  expected_density_ = 1.0;
  chunk_index_.clear();
  bitmaps_.clear();
}

void TcamClassifier::Compile(
    const std::vector<const TernaryWord*>& slot_patterns,
    std::size_t key_width) {
  Reset();
  const std::size_t slots = slot_patterns.size();
  if (slots < config_.min_slots || key_width == 0) return;
  const std::size_t n_chunks = (key_width + 7) / 8;

  // Rank chunks by expected candidate density, computed from wildcard
  // counts alone — no tables are built for rejected chunks.
  struct Candidate {
    std::size_t chunk;
    double density;
  };
  std::vector<Candidate> candidates;
  candidates.reserve(n_chunks);
  for (std::size_t c = 0; c < n_chunks; ++c) {
    const std::size_t b0 = c * 8;
    const std::size_t b1 = std::min(b0 + 8, key_width);
    double sum = 0.0;
    for (const TernaryWord* pattern : slot_patterns) {
      int wild = 0;
      for (std::size_t i = b0; i < b1; ++i) {
        if (pattern->bit(i) == Tbit::kAny) ++wild;
      }
      sum += std::ldexp(1.0, wild);
    }
    const double density =
        sum / (std::ldexp(1.0, static_cast<int>(b1 - b0)) *
               static_cast<double>(slots));
    if (density <= kMaxChunkDensity) {
      candidates.push_back({c, density});
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.density != b.density) return a.density < b.density;
              return a.chunk < b.chunk;
            });

  double product = 1.0;
  for (const Candidate& cand : candidates) {
    if (chunk_index_.size() >= kMaxChunks) break;
    // Diminishing returns: once the expected survivor set is already
    // tiny, another bitmap row load per search cannot pay for itself.
    if (product <= 1.0 / 1024.0) break;
    chunk_index_.push_back(cand.chunk);
    product *= cand.density;
  }
  if (chunk_index_.empty() || product > kMaxExpectedDensity) {
    Reset();
    return;
  }
  expected_density_ = product;

  // Build the 256-bucket slot bitsets for the selected chunks only.
  const std::size_t bank_words = (slots + 63) / 64;
  words_per_row_ = (bank_words + 3) & ~std::size_t{3};
  bitmaps_.assign(chunk_index_.size() * 256 * words_per_row_, 0);
  for (std::size_t k = 0; k < chunk_index_.size(); ++k) {
    const std::size_t c = chunk_index_[k];
    const std::size_t b0 = c * 8;
    const std::size_t b1 = std::min(b0 + 8, key_width);
    std::uint64_t* chunk_rows = bitmaps_.data() + k * 256 * words_per_row_;
    for (std::size_t s = 0; s < slots; ++s) {
      assert(slot_patterns[s]->width() == key_width);
      unsigned base = 0;
      unsigned free_mask = 0;
      for (std::size_t i = b0; i < b1; ++i) {
        const unsigned bit = 1u << (i - b0);
        switch (slot_patterns[s]->bit(i)) {
          case Tbit::kOne:
            base |= bit;
            break;
          case Tbit::kZero:
            break;
          case Tbit::kAny:
            free_mask |= bit;
            break;
        }
      }
      // Chunk-value bits past key_width never occur in packed keys (they
      // read as 0), so leaving them out of base/free_mask is exact.
      const std::uint64_t slot_bit = std::uint64_t{1} << (s & 63);
      const std::size_t slot_word = s >> 6;
      unsigned sub = 0;
      while (true) {  // ascending subset enumeration of free_mask
        chunk_rows[(base | sub) * words_per_row_ + slot_word] |= slot_bit;
        if (sub == free_mask) break;
        sub = (sub - free_mask) & free_mask;
      }
    }
  }
  active_ = true;
}

}  // namespace analognf::tcam
