#include "analognf/tcam/lpm_flat_engine.hpp"

#include <stdexcept>

namespace analognf::tcam {

namespace {

// Network mask of a prefix length; 0 for /0 (no shift-by-32 UB).
std::uint32_t PrefixMask(int len) {
  return len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
}

void ValidateRoute(const LpmFlatEngine::Route& route) {
  if (route.prefix_len < 0 || route.prefix_len > 32) {
    throw std::invalid_argument("LpmFlatEngine: prefix_len outside [0, 32]");
  }
  if (route.entry_index > LpmFlatEngine::kMaxEntryIndex) {
    throw std::invalid_argument(
        "LpmFlatEngine: entry_index exceeds the 24-bit slot field");
  }
}

}  // namespace

void LpmFlatEngine::RequireCompiled() const {
  if (!compiled_) {
    throw std::logic_error(
        "LpmFlatEngine: used before Compile — commit the owning table first");
  }
}

LpmFlatEngine::DirectPage& LpmFlatEngine::MutableDirectPage(
    std::size_t page_idx) {
  std::shared_ptr<DirectPage>& page = pages_[page_idx];
  if (page == nullptr) {
    page = std::make_shared<DirectPage>();  // value-initialised: all-miss
    if (IsValid(fills_[page_idx])) page->fill(fills_[page_idx]);
  } else if (page.use_count() != 1) {
    page = std::make_shared<DirectPage>(*page);
  }
  return *page;
}

LpmFlatEngine::Tbl8& LpmFlatEngine::MutableTbl8(std::size_t tbl8_id) {
  std::shared_ptr<Tbl8Dir>& dir = tbl8_dirs_[tbl8_id >> kTbl8DirBits];
  if (dir.use_count() != 1) {
    dir = std::make_shared<Tbl8Dir>(*dir);
  }
  std::shared_ptr<Tbl8>& page = (*dir)[tbl8_id & (kTbl8DirSlots - 1)];
  if (page.use_count() != 1) {
    page = std::make_shared<Tbl8>(*page);
  }
  return *page;
}

std::size_t LpmFlatEngine::NewTbl8(std::uint64_t seed) {
  const std::size_t id = tbl8_count_;
  if (id > kMaxEntryIndex) {
    throw std::length_error("LpmFlatEngine: extension page id overflow");
  }
  auto tbl8 = std::make_shared<Tbl8>();  // value-initialised: all-miss
  if (IsValid(seed)) tbl8->fill(seed);
  const std::size_t d = id >> kTbl8DirBits;
  if (d == tbl8_dirs_.size()) {
    tbl8_dirs_.push_back(std::make_shared<Tbl8Dir>());
  } else if (tbl8_dirs_[d].use_count() != 1) {
    tbl8_dirs_[d] = std::make_shared<Tbl8Dir>(*tbl8_dirs_[d]);
  }
  (*tbl8_dirs_[d])[id & (kTbl8DirSlots - 1)] = std::move(tbl8);
  ++tbl8_count_;
  return id;
}

void LpmFlatEngine::FoldLeafDirect(std::size_t idx24, std::uint64_t leaf) {
  const std::uint64_t cur = ReadDirect(idx24);
  if (IsExt(cur)) {
    // The /24 is fanned out into an extension page; the leaf covers all
    // of it, so arbitrate against each /32 slot individually.
    Tbl8& tbl8 = MutableTbl8(Tbl8Of(cur));
    const int depth = DepthOf(leaf);
    const std::size_t entry = EntryOf(leaf);
    for (std::uint64_t& slot : tbl8) {
      if (Beats(depth, entry, slot)) slot = leaf;
    }
    return;
  }
  if (Beats(DepthOf(leaf), EntryOf(leaf), cur)) {
    MutableDirectPage(idx24 >> kPageBits)[idx24 & (kPageSlots - 1)] = leaf;
  }
}

void LpmFlatEngine::FoldLeafRange(std::size_t idx24_lo, std::size_t idx24_hi,
                                  std::uint64_t leaf) {
  for (std::size_t idx24 = idx24_lo; idx24 < idx24_hi;) {
    const std::size_t page_idx = idx24 >> kPageBits;
    if (pages_[page_idx] == nullptr && (idx24 & (kPageSlots - 1)) == 0 &&
        idx24_hi - idx24 >= kPageSlots) {
      if (Beats(DepthOf(leaf), EntryOf(leaf), fills_[page_idx])) {
        fills_[page_idx] = leaf;
      }
      idx24 += kPageSlots;
      continue;
    }
    FoldLeafDirect(idx24, leaf);
    ++idx24;
  }
}

void LpmFlatEngine::ReplaceOwnerDirect(std::size_t idx24_lo,
                                       std::size_t idx24_hi,
                                       std::size_t victim,
                                       std::uint64_t replacement) {
  for (std::size_t idx24 = idx24_lo; idx24 < idx24_hi; ++idx24) {
    const std::size_t page_idx = idx24 >> kPageBits;
    if (pages_[page_idx] == nullptr) {
      // Only a route covering the whole page can own its fill, and the
      // cover of such a route covers the page too.
      const std::uint64_t fill = fills_[page_idx];
      if (IsValid(fill) && EntryOf(fill) == victim) {
        fills_[page_idx] = replacement;
      }
      idx24 |= kPageSlots - 1;  // skip the rest of the null page
      continue;
    }
    const std::uint64_t cur = ReadDirect(idx24);
    if (!IsValid(cur)) continue;
    if (IsExt(cur)) {
      // Only touch the page when the victim actually owns slots in it.
      const Tbl8& ro = ReadTbl8(Tbl8Of(cur));
      bool owns = false;
      for (const std::uint64_t slot : ro) {
        if (IsValid(slot) && EntryOf(slot) == victim) {
          owns = true;
          break;
        }
      }
      if (!owns) continue;
      Tbl8& tbl8 = MutableTbl8(Tbl8Of(cur));
      for (std::uint64_t& slot : tbl8) {
        if (IsValid(slot) && EntryOf(slot) == victim) slot = replacement;
      }
      continue;
    }
    if (EntryOf(cur) == victim) {
      MutableDirectPage(idx24 >> kPageBits)[idx24 & (kPageSlots - 1)] =
          replacement;
    }
  }
}

void LpmFlatEngine::Compile(const std::vector<Route>& live_routes) {
  pages_.assign(kPageCount, nullptr);
  fills_.assign(kPageCount, 0);
  tbl8_dirs_.clear();
  tbl8_count_ = 0;
  compiled_ = true;
  // Route order is irrelevant: every fold resolves the same (depth desc,
  // entry asc) total order, which is exactly what makes delta patches
  // bit-identical to this rebuild.
  for (const Route& route : live_routes) PatchInsert(route);
  telemetry_.recompiles.Inc();
}

void LpmFlatEngine::CompileDeltaFrom(const LpmFlatEngine& base) {
  if (!base.compiled_) {
    throw std::logic_error("LpmFlatEngine: delta from an uncompiled base");
  }
  // Pages are shared copy-on-write; only the pointer vectors are copied
  // (1024 direct-page pointers plus one pointer per 512 tbl8s), with the
  // 1024 page fills.
  pages_ = base.pages_;
  fills_ = base.fills_;
  tbl8_dirs_ = base.tbl8_dirs_;
  tbl8_count_ = base.tbl8_count_;
  compiled_ = true;
}

void LpmFlatEngine::PatchInsert(const Route& route) {
  RequireCompiled();
  ValidateRoute(route);
  const std::uint32_t masked = route.value & PrefixMask(route.prefix_len);
  const std::uint64_t leaf =
      MakeLeaf(route.prefix_len, route.entry_index, route.action);
  if (route.prefix_len <= kDirectBits) {
    const std::size_t lo = static_cast<std::size_t>(masked >> 8);
    const std::size_t span = std::size_t{1}
                             << (kDirectBits - route.prefix_len);
    FoldLeafRange(lo, lo + span, leaf);
    return;
  }
  // Longer than /24: fan the /24 out into an extension page on first
  // use, seeding every /32 slot with the direct slot's current leaf so
  // shorter covering routes keep answering for untouched addresses.
  const std::size_t idx24 = static_cast<std::size_t>(masked >> 8);
  std::uint64_t cur = ReadDirect(idx24);
  if (!IsExt(cur)) {
    const std::size_t tbl8_id = NewTbl8(cur);
    MutableDirectPage(idx24 >> kPageBits)[idx24 & (kPageSlots - 1)] =
        MakeExt(tbl8_id);
    cur = MakeExt(tbl8_id);
  }
  Tbl8& tbl8 = MutableTbl8(Tbl8Of(cur));
  const std::size_t lo = static_cast<std::size_t>(masked & 0xff);
  const std::size_t span = std::size_t{1} << (32 - route.prefix_len);
  for (std::size_t i = lo; i < lo + span; ++i) {
    if (Beats(route.prefix_len, route.entry_index, tbl8[i])) tbl8[i] = leaf;
  }
}

void LpmFlatEngine::PatchErase(const Route& route, const Route* cover) {
  RequireCompiled();
  ValidateRoute(route);
  const std::uint64_t replacement =
      cover != nullptr
          ? MakeLeaf(cover->prefix_len, cover->entry_index, cover->action)
          : 0;
  const std::uint32_t masked = route.value & PrefixMask(route.prefix_len);
  if (route.prefix_len <= kDirectBits) {
    const std::size_t lo = static_cast<std::size_t>(masked >> 8);
    const std::size_t span = std::size_t{1}
                             << (kDirectBits - route.prefix_len);
    ReplaceOwnerDirect(lo, lo + span, route.entry_index, replacement);
    return;
  }
  const std::size_t idx24 = static_cast<std::size_t>(masked >> 8);
  const std::uint64_t cur = ReadDirect(idx24);
  if (!IsExt(cur)) return;  // route was never folded (staged add+withdraw)
  const Tbl8& ro = ReadTbl8(Tbl8Of(cur));
  const std::size_t lo = static_cast<std::size_t>(masked & 0xff);
  const std::size_t span = std::size_t{1} << (32 - route.prefix_len);
  bool owns = false;
  for (std::size_t i = lo; i < lo + span; ++i) {
    if (IsValid(ro[i]) && EntryOf(ro[i]) == route.entry_index) {
      owns = true;
      break;
    }
  }
  if (!owns) return;
  Tbl8& tbl8 = MutableTbl8(Tbl8Of(cur));
  for (std::size_t i = lo; i < lo + span; ++i) {
    if (IsValid(tbl8[i]) && EntryOf(tbl8[i]) == route.entry_index) {
      tbl8[i] = replacement;
    }
  }
}

void LpmFlatEngine::LookupBatch(
    const std::uint32_t* addresses, std::size_t count,
    std::vector<std::optional<TcamEngineHit>>& out) const {
  RequireCompiled();
  out.assign(count, std::nullopt);
  // Telemetry folds over the whole batch: one counter update per batch,
  // not two per packet, keeps the instrumented hot path cheap.
  std::size_t total_reads = 0;
  for (std::size_t q = 0; q < count; ++q) {
    std::uint64_t slot =
        ReadDirect(static_cast<std::size_t>(addresses[q] >> 8));
    ++total_reads;
    if (IsExt(slot)) {
      slot = ReadTbl8(Tbl8Of(slot))[addresses[q] & 0xff];
      ++total_reads;
    }
    if (!IsValid(slot)) continue;
    TcamEngineHit hit;
    hit.entry_index = EntryOf(slot);
    hit.action = ActionOf(slot);
    hit.priority = DepthOf(slot);
    out[q] = hit;
  }
  telemetry_.searches.Inc(count);
  telemetry_.rows_scanned.Inc(total_reads);
}

}  // namespace analognf::tcam
