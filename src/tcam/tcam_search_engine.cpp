#include "analognf/tcam/tcam_search_engine.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>

#include "analognf/common/simd.hpp"

namespace analognf::tcam {

TcamSearchEngine::TcamSearchEngine(std::size_t key_width,
                                   TcamSearchConfig config)
    : key_width_(key_width), lanes_((key_width + 63) / 64), config_(config) {
  if (key_width == 0) {
    throw std::invalid_argument("TcamSearchEngine: zero key width");
  }
  tail_mask_.resize(lanes_);
  tail_value_.resize(lanes_);
}

void TcamSearchEngine::RequireCompiled() const {
  if (!compiled_) {
    throw std::logic_error(
        "TcamSearchEngine: searched before Compile — commit the owning "
        "table first");
  }
}

void TcamSearchEngine::Compile(
    const std::vector<TcamEngineEntry>& live_entries) {
  // Priority-sorted slot order: the first matching slot IS the winner
  // under the hardware's (priority desc, table index asc) resolution.
  std::vector<const TcamEngineEntry*> order;
  order.reserve(live_entries.size());
  for (const TcamEngineEntry& e : live_entries) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const TcamEngineEntry* a, const TcamEngineEntry* b) {
              if (a->priority != b->priority) return a->priority > b->priority;
              return a->index < b->index;
            });

  auto core = std::make_shared<CompiledCore>();
  core->slots = order.size();
  core->slot_entry.assign(core->slots, 0);
  core->slot_action.assign(core->slots, 0);
  core->slot_priority.assign(core->slots, 0);
  // Pad columns to whole banks for the SIMD bank kernel (see header).
  const std::size_t banks = (core->slots + 63) / 64;
  const std::size_t padded = banks * 64;
  core->mask.resize(lanes_);
  core->value.resize(lanes_);
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    core->mask[lane].assign(padded, 0);
    core->value[lane].assign(padded, 0);
  }

  std::size_t max_index = 0;
  for (std::size_t s = 0; s < core->slots; ++s) {
    const TcamEngineEntry& e = *order[s];
    assert(e.pattern != nullptr && e.pattern->width() == key_width_);
    core->slot_entry[s] = e.index;
    core->slot_action[s] = e.action;
    core->slot_priority[s] = e.priority;
    max_index = std::max(max_index, e.index);
    for (std::size_t i = 0; i < key_width_; ++i) {
      const std::uint64_t bit = std::uint64_t{1} << (i & 63);
      switch (e.pattern->bit(i)) {
        case Tbit::kZero:
          core->mask[i >> 6][s] |= bit;
          break;
        case Tbit::kOne:
          core->mask[i >> 6][s] |= bit;
          core->value[i >> 6][s] |= bit;
          break;
        case Tbit::kAny:
          break;
      }
    }
  }
  // Reverse map for O(1) PatchErase of a core slot.
  core->entry_slot.assign(core->slots == 0 ? 0 : max_index + 1, kNoSlot);
  for (std::size_t s = 0; s < core->slots; ++s) {
    core->entry_slot[core->slot_entry[s]] = s;
  }

  // Tier decision: build the pruning index when the heuristic pays off;
  // otherwise stay on the linear scan (tier() reports the choice).
  std::vector<const TernaryWord*> slot_patterns(core->slots);
  for (std::size_t s = 0; s < core->slots; ++s) {
    slot_patterns[s] = order[s]->pattern;
  }
  core->pruner = TcamClassifier(config_.classifier);
  core->pruner.Compile(slot_patterns, key_width_);

  core_ = std::move(core);

  // A fresh core carries no overlay. The erased bitmap is padded to a
  // multiple of 4 words to line up with the pruner's intersection rows.
  core_erased_.assign(((banks + 3) / 4) * 4, 0);
  erased_count_ = 0;
  tail_count_ = 0;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    tail_mask_[lane].clear();
    tail_value_[lane].clear();
  }
  tail_live_.clear();
  tail_entry_.clear();
  tail_action_.clear();
  tail_priority_.clear();

  compiled_ = true;
  telemetry_.recompiles.Inc();
}

void TcamSearchEngine::CompileDeltaFrom(const TcamSearchEngine& base) {
  if (!base.compiled_) {
    throw std::logic_error("TcamSearchEngine: delta from an uncompiled base");
  }
  if (base.key_width_ != key_width_) {
    throw std::invalid_argument("TcamSearchEngine: delta key width mismatch");
  }
  // The core is shared (immutable); only the small overlay is copied.
  core_ = base.core_;
  core_erased_ = base.core_erased_;
  erased_count_ = base.erased_count_;
  tail_count_ = base.tail_count_;
  tail_mask_ = base.tail_mask_;
  tail_value_ = base.tail_value_;
  tail_live_ = base.tail_live_;
  tail_entry_ = base.tail_entry_;
  tail_action_ = base.tail_action_;
  tail_priority_ = base.tail_priority_;
  compiled_ = true;
}

void TcamSearchEngine::PatchInsert(const TcamEngineEntry& entry) {
  RequireCompiled();
  assert(entry.pattern != nullptr && entry.pattern->width() == key_width_);
  const std::size_t slot = tail_count_;
  if (slot == TailBankCount() * 64) {
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      tail_mask_[lane].resize(tail_mask_[lane].size() + 64, 0);
      tail_value_[lane].resize(tail_value_[lane].size() + 64, 0);
    }
    tail_live_.push_back(0);
  }
  for (std::size_t i = 0; i < key_width_; ++i) {
    const std::uint64_t bit = std::uint64_t{1} << (i & 63);
    switch (entry.pattern->bit(i)) {
      case Tbit::kZero:
        tail_mask_[i >> 6][slot] |= bit;
        break;
      case Tbit::kOne:
        tail_mask_[i >> 6][slot] |= bit;
        tail_value_[i >> 6][slot] |= bit;
        break;
      case Tbit::kAny:
        break;
    }
  }
  tail_entry_.push_back(entry.index);
  tail_action_.push_back(entry.action);
  tail_priority_.push_back(entry.priority);
  tail_live_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
  ++tail_count_;
}

bool TcamSearchEngine::PatchErase(std::size_t entry_index) {
  RequireCompiled();
  // Tail first, newest first: the most recent insert of a reused stable
  // index is the live one.
  for (std::size_t s = tail_count_; s-- > 0;) {
    const std::uint64_t bit = std::uint64_t{1} << (s & 63);
    if (tail_entry_[s] == entry_index && (tail_live_[s >> 6] & bit) != 0) {
      tail_live_[s >> 6] &= ~bit;
      // Mask/value lanes keep their bits: the live mask excludes the
      // slot from every future match word, matching the core's
      // erased-bitmap treatment. Storage is reclaimed by the next full
      // recompile.
      ++erased_count_;
      return true;
    }
  }
  const std::vector<std::size_t>& entry_slot = core_->entry_slot;
  if (entry_index < entry_slot.size() && entry_slot[entry_index] != kNoSlot) {
    const std::size_t slot = entry_slot[entry_index];
    const std::uint64_t bit = std::uint64_t{1} << (slot & 63);
    if ((core_erased_[slot >> 6] & bit) == 0) {
      core_erased_[slot >> 6] |= bit;
      ++erased_count_;
      return true;
    }
  }
  return false;
}

std::uint64_t TcamSearchEngine::EvalBank(const std::uint64_t* key_lanes,
                                         std::size_t bank) const {
  const CompiledCore& core = *core_;
  const std::size_t s0 = bank * 64;
  const std::size_t n = std::min<std::size_t>(64, core.slots - s0);
  // The kernel compares only the n live slots, so the bank-padding
  // slots (whose all-zero mask/value columns would read as matches) are
  // never scanned; erased slots are masked out here.
  std::uint64_t match = simd::LowSlotsMask(n) & ~core_erased_[bank];
  if (match == 0) return 0;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    match &= simd::BankMatchWord(key_lanes[lane], core.mask[lane].data() + s0,
                                 core.value[lane].data() + s0, n);
    if (match == 0) break;
  }
  return match;
}

bool TcamSearchEngine::VerifySlot(const std::uint64_t* key_lanes,
                                  std::size_t slot) const {
  const CompiledCore& core = *core_;
  for (std::size_t lane = 0; lane < lanes_; ++lane) {
    if ((key_lanes[lane] & core.mask[lane][slot]) != core.value[lane][slot]) {
      return false;
    }
  }
  return true;
}

std::size_t TcamSearchEngine::PrunedFirstHit(const std::uint64_t* key_lanes,
                                             std::uint64_t& candidates) const {
  const TcamClassifier& pruner = core_->pruner;
  const std::uint64_t* rows[TcamClassifier::kMaxChunks];
  pruner.SelectRows(key_lanes, rows);
  const std::size_t n_rows = pruner.chunk_count();
  const std::size_t words = pruner.words_per_row();
  std::uint64_t inter[4];
  for (std::size_t w0 = 0; w0 < words; w0 += 4) {
    if (!simd::IntersectWords4(rows, n_rows, w0, inter)) continue;
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t bank = w0 + j;
      // Slots erased by delta commits leave the candidate set here, so
      // the sparse path below never verifies a dead slot.
      std::uint64_t word = inter[j] & ~core_erased_[bank];
      if (word == 0) continue;
      // Dense survivor words: one SIMD bank evaluation beats verifying
      // slot by slot.
      if (std::popcount(word) >= 16) {
        candidates += static_cast<std::uint64_t>(std::popcount(word));
        const std::uint64_t match = EvalBank(key_lanes, bank) & word;
        if (match != 0) {
          return bank * 64 + static_cast<std::size_t>(std::countr_zero(match));
        }
        continue;
      }
      // Sparse survivors: ascending slot order IS priority order, so the
      // first verified candidate is the winner.
      while (word != 0) {
        const std::size_t s =
            bank * 64 + static_cast<std::size_t>(std::countr_zero(word));
        ++candidates;
        if (VerifySlot(key_lanes, s)) return s;
        word &= word - 1;
      }
    }
  }
  return kNoSlot;
}

std::size_t TcamSearchEngine::FirstHit(const std::uint64_t* key_lanes) const {
  const std::size_t banks = BankCount();
  for (std::size_t b = 0; b < banks; ++b) {
    const std::uint64_t match = EvalBank(key_lanes, b);
    if (match != 0) {
      return b * 64 + static_cast<std::size_t>(std::countr_zero(match));
    }
  }
  return kNoSlot;
}

std::size_t TcamSearchEngine::TailBest(const std::uint64_t* key_lanes) const {
  // The tail is unsorted (append order), so the winner is chosen by
  // explicit (priority desc, entry asc) comparison — the same total
  // order Compile() sorts the core by, which is what makes the merged
  // result identical to a full recompile's.
  std::size_t best = kNoSlot;
  std::int32_t best_priority = 0;
  std::size_t best_entry = 0;
  const std::size_t banks = TailBankCount();
  for (std::size_t b = 0; b < banks; ++b) {
    // The live word doubles as the valid mask: bits of erased slots and
    // of bank padding are never set.
    std::uint64_t match = tail_live_[b];
    if (match == 0) continue;
    const std::size_t s0 = b * 64;
    const std::size_t n = std::min<std::size_t>(64, tail_count_ - s0);
    for (std::size_t lane = 0; lane < lanes_; ++lane) {
      match &= simd::BankMatchWord(key_lanes[lane],
                                   tail_mask_[lane].data() + s0,
                                   tail_value_[lane].data() + s0, n);
      if (match == 0) break;
    }
    while (match != 0) {
      const std::size_t s =
          s0 + static_cast<std::size_t>(std::countr_zero(match));
      const std::int32_t p = tail_priority_[s];
      const std::size_t e = tail_entry_[s];
      if (best == kNoSlot || p > best_priority ||
          (p == best_priority && e < best_entry)) {
        best = s;
        best_priority = p;
        best_entry = e;
      }
      match &= match - 1;
    }
  }
  return best;
}

std::optional<TcamEngineHit> TcamSearchEngine::HitAt(std::size_t slot) const {
  if (slot == kNoSlot) return std::nullopt;
  TcamEngineHit hit;
  hit.entry_index = core_->slot_entry[slot];
  hit.action = core_->slot_action[slot];
  hit.priority = core_->slot_priority[slot];
  return hit;
}

std::optional<TcamEngineHit> TcamSearchEngine::MergeWithTail(
    std::size_t core_slot, const std::uint64_t* key_lanes) const {
  const std::size_t tail_slot =
      tail_count_ != 0 ? TailBest(key_lanes) : kNoSlot;
  if (tail_slot == kNoSlot) return HitAt(core_slot);
  TcamEngineHit tail_hit;
  tail_hit.entry_index = tail_entry_[tail_slot];
  tail_hit.action = tail_action_[tail_slot];
  tail_hit.priority = tail_priority_[tail_slot];
  if (core_slot == kNoSlot) return tail_hit;
  const std::int32_t core_priority = core_->slot_priority[core_slot];
  const std::size_t core_entry = core_->slot_entry[core_slot];
  if (core_priority > tail_hit.priority ||
      (core_priority == tail_hit.priority &&
       core_entry < tail_hit.entry_index)) {
    return HitAt(core_slot);
  }
  return tail_hit;
}

std::optional<TcamEngineHit> TcamSearchEngine::Search(
    const BitKey& key) const {
  RequireCompiled();
  if (key.width() != key_width_) {
    throw std::invalid_argument("TcamSearchEngine: key width mismatch");
  }
  // The hardware model activates every stored row per probe.
  telemetry_.searches.Inc();
  telemetry_.rows_scanned.Inc(slots());
  // BitKey stores the engine's packed lane layout directly.
  std::size_t core_slot = kNoSlot;
  if (core_slots() != 0) {
    if (core_->pruner.active()) {
      std::uint64_t candidates = 0;
      core_slot = PrunedFirstHit(key.words(), candidates);
      telemetry_.candidates.Inc(candidates);
      telemetry_.prune_ratio.Set(1.0 - static_cast<double>(candidates) /
                                           static_cast<double>(slots()));
    } else {
      core_slot = FirstHit(key.words());
    }
  }
  return MergeWithTail(core_slot, key.words());
}

void TcamSearchEngine::SearchBatch(
    const BitKey* keys, std::size_t count,
    std::vector<std::optional<TcamEngineHit>>& out) const {
  RequireCompiled();
  out.assign(count, std::nullopt);
  telemetry_.searches.Inc(count);
  if (count == 0 || slots() == 0) return;
  telemetry_.rows_scanned.Inc(slots() * count);
  for (std::size_t q = 0; q < count; ++q) {
    if (keys[q].width() != key_width_) {
      throw std::invalid_argument("TcamSearchEngine: key width mismatch");
    }
  }

  const bool pruned = core_->pruner.active();
  const bool have_core = core_slots() != 0;
  std::uint64_t candidates = 0;
  for (std::size_t q = 0; q < count; ++q) {
    // Keys carry their packed lanes; no per-batch repacking step.
    std::size_t core_slot = kNoSlot;
    if (have_core) {
      core_slot = pruned ? PrunedFirstHit(keys[q].words(), candidates)
                         : FirstHit(keys[q].words());
    }
    out[q] = MergeWithTail(core_slot, keys[q].words());
  }
  if (pruned) {
    telemetry_.candidates.Inc(candidates);
    telemetry_.prune_ratio.Set(1.0 - static_cast<double>(candidates) /
                                         static_cast<double>(slots() * count));
  }
}

}  // namespace analognf::tcam
