#include "analognf/tcam/tcam.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace analognf::tcam {

namespace {

// Monotonic nanoseconds for commit-latency accounting.
std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

void TcamTechnology::Validate() const {
  if (!(search_energy_per_bit_j >= 0.0)) {
    throw std::invalid_argument("TcamTechnology: negative per-bit energy");
  }
  if (!(search_latency_s >= 0.0)) {
    throw std::invalid_argument("TcamTechnology: negative latency");
  }
  if (data_movement_fraction < 0.0 || data_movement_fraction > 1.0) {
    throw std::invalid_argument(
        "TcamTechnology: data_movement_fraction outside [0,1]");
  }
}

TcamTechnology TcamTechnology::TransistorCmos() {
  TcamTechnology tech;
  tech.name = "cmos-tcam (Arsovski'13)";
  tech.search_energy_per_bit_j = 0.58e-15;
  tech.search_latency_s = 1.0e-9;
  tech.data_movement_fraction = 0.9;
  return tech;
}

TcamTechnology TcamTechnology::MemristorTcam() {
  TcamTechnology tech;
  tech.name = "memristor-tcam (TCAmM'22)";
  tech.search_energy_per_bit_j = 1.0e-15;
  tech.search_latency_s = 1.0e-9;
  tech.data_movement_fraction = 0.1;
  return tech;
}

namespace {

// Seed snapshot for a fresh table: the empty compilation at epoch 0, so
// snapshot() is never null and an unpopulated table is searchable.
std::shared_ptr<const TcamTableSnapshot> EmptyTcamSnapshot(
    std::size_t key_width, const TcamTechnology& technology,
    const TcamSearchConfig& engine_config) {
  if (key_width == 0) {
    throw std::invalid_argument("TcamTable: zero key width");
  }
  technology.Validate();
  auto empty = std::make_shared<TcamTableSnapshot>(key_width, engine_config);
  empty->engine.Compile({});
  empty->search_latency_s = technology.search_latency_s;
  return empty;
}

}  // namespace

TcamTable::TcamTable(std::size_t key_width, TcamTechnology technology,
                     TcamSearchConfig engine_config)
    : key_width_(key_width),
      technology_(std::move(technology)),
      engine_config_(engine_config),
      published_(EmptyTcamSnapshot(key_width_, technology_, engine_config_)) {}

std::size_t TcamTable::Insert(Entry entry) {
  if (entry.pattern.width() != key_width_) {
    throw std::invalid_argument("TcamTable::Insert: pattern width mismatch");
  }
  std::size_t index;
  if (!free_list_.empty()) {
    index = free_list_.back();
    free_list_.pop_back();
    entries_[index] = std::move(entry);
    live_[index] = 1;
  } else {
    index = entries_.size();
    entries_.push_back(std::move(entry));
    live_.push_back(1);
  }
  ++live_count_;
  delta_.Note(TableDeltaOp::kInsert, index);
  dirty_.store(true, std::memory_order_release);
  return index;
}

void TcamTable::Erase(std::size_t index) {
  if (index >= entries_.size()) {
    throw std::out_of_range("TcamTable::Erase: index out of range");
  }
  if (live_[index] == 0) {
    throw std::invalid_argument("TcamTable::Erase: entry already erased");
  }
  live_[index] = 0;
  free_list_.push_back(index);
  --live_count_;
  delta_.Note(TableDeltaOp::kErase, index);
  dirty_.store(true, std::memory_order_release);
}

void TcamTable::CompactTombstones() {
  const std::size_t dead = entries_.size() - live_count_;
  if (dead * 4 <= entries_.size()) return;  // dead fraction <= 25%
  // Trailing tombstones can go outright: no later slot exists whose
  // index they would disturb. Their free-list records go with them.
  std::size_t new_size = entries_.size();
  while (new_size > 0 && live_[new_size - 1] == 0) --new_size;
  if (new_size != entries_.size()) {
    entries_.resize(new_size);
    live_.resize(new_size);
    std::erase_if(free_list_,
                  [new_size](std::size_t i) { return i >= new_size; });
  }
  // Interior tombstones keep their slot (the stable-index contract) but
  // drop the pattern payload; Insert overwrites the whole entry on reuse.
  for (std::size_t i = 0; i < new_size; ++i) {
    if (live_[i] == 0) entries_[i].pattern = TernaryWord{};
  }
}

void TcamTable::Commit() {
  if (!NeedsCommit()) return;
  const std::uint64_t t0 = NowNs();
  const std::shared_ptr<const TcamTableSnapshot> prev = published_.Acquire();
  // Delta decision: patch the previous snapshot's compiled core when the
  // staged set (plus the overlay it already carries) is small against
  // the committed table; otherwise recompile from scratch.
  const bool use_delta = engine_config_.delta_policy.UseDelta(
      delta_.touched().size(), prev->live_rows,
      prev->engine.overlay_slots());
  auto snap = std::make_shared<TcamTableSnapshot>(key_width_, engine_config_);
  snap->engine.BindTelemetry(telemetry_);
  std::size_t patched_rows = 0;
  if (use_delta) {
    snap->engine.CompileDeltaFrom(prev->engine);
    // Apply each touched index's *final* state: erase whatever the base
    // stores for it, then re-add it if it is live now. Winners resolve
    // by explicit (priority, index) keys, so this is bit-identical to a
    // full recompile (see TableDelta::touched()).
    for (const std::size_t index : delta_.touched()) {
      snap->engine.PatchErase(index);
      if (IsLive(index)) {
        snap->engine.PatchInsert({&entries_[index].pattern,
                                  entries_[index].action,
                                  entries_[index].priority, index});
      }
      ++patched_rows;
    }
  } else {
    CompactTombstones();
    std::vector<TcamEngineEntry> view;
    view.reserve(live_count_);
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      if (live_[i] == 0) continue;
      view.push_back({&entries_[i].pattern, entries_[i].action,
                      entries_[i].priority, i});
    }
    snap->engine.Compile(view);
  }
  snap->live_rows = live_count_;
  snap->search_energy_j = SearchEnergyJ();
  snap->search_latency_s = technology_.search_latency_s;
  snap->epoch = ++commits_;
  delta_.Clear();

  const std::uint64_t commit_ns = NowNs() - t0;
  ++commit_stats_.commits;
  commit_stats_.last_commit_ns = commit_ns;
  commit_stats_.last_was_delta = use_delta;
  if (use_delta) {
    ++commit_stats_.delta_commits;
    commit_stats_.delta_rows += patched_rows;
    commit_telemetry_.delta_rows.Inc(patched_rows);
  } else {
    ++commit_stats_.full_recompiles;
    commit_telemetry_.full_recompiles.Inc();
  }
  commit_telemetry_.commit_ns.Inc(commit_ns);

  // Clear the dirty flag BEFORE the publish: a strict single-threaded
  // reader that observes dirty == false is then guaranteed to acquire
  // this (or a newer) snapshot; concurrent stagers simply re-set it.
  dirty_.store(false, std::memory_order_release);
  published_.Publish(std::move(snap));
}

double TcamTable::SearchEnergyJ() const {
  return static_cast<double>(StoredBits()) *
         technology_.search_energy_per_bit_j;
}

void TcamTable::BindTelemetry(telemetry::MetricsRegistry& registry,
                              const std::string& prefix) {
  telemetry_ = telemetry::MakeSearchEngineCounters(registry, prefix);
  // All tables share the `table.*` commit meters (GetCounter dedups by
  // name), attributing control-plane cost fleet-wide.
  commit_telemetry_ = telemetry::MakeTableCommitCounters(registry);
  // Future snapshots bind at Commit; rebuild the current one's handles
  // by forcing a recompile on the next commit is unnecessary — the
  // published snapshot is immutable, so instrumentation starts with the
  // next Commit(). Tables are bound before traffic in practice.
  if (NeedsCommit()) return;
  // Re-publish the current row set with counters attached so a table
  // bound after its first Commit still reports.
  dirty_.store(true, std::memory_order_release);
  Commit();
}

namespace {

// Network mask of a prefix length; 0 for /0 (no shift-by-32 UB).
std::uint32_t LpmPrefixMask(int len) {
  return len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
}

// by_prefix_ key: (masked value, prefix length) packed into 38 bits.
std::uint64_t LpmPrefixKey(std::uint32_t masked, int len) {
  return (static_cast<std::uint64_t>(masked) << 6) |
         static_cast<std::uint64_t>(len);
}

// Seed snapshot for a fresh LPM table: the empty route set compiled at
// epoch 0, so lookups on a fresh table miss instead of throwing.
std::shared_ptr<const LpmTableSnapshot> EmptyLpmSnapshot(
    const TcamTechnology& technology) {
  technology.Validate();
  auto snap = std::make_shared<LpmTableSnapshot>();
  snap->engine.Compile({});
  snap->search_latency_s = technology.search_latency_s;
  return snap;
}

}  // namespace

LpmTable::LpmTable(TcamTechnology technology, LpmConfig config)
    : technology_(std::move(technology)),
      config_(config),
      published_(EmptyLpmSnapshot(technology_)) {}

std::size_t LpmTable::AddRoute(std::uint32_t value, int prefix_len,
                               std::uint32_t action) {
  if (prefix_len < 0 || prefix_len > 32) {
    throw std::invalid_argument("LpmTable::AddRoute: bad prefix length");
  }
  std::size_t index = routes_.size();
  if (free_list_.empty()) {
    routes_.emplace_back();
    live_.push_back(0);
  } else {
    index = free_list_.back();
    free_list_.pop_back();
  }
  live_[index] = 1;
  ++live_count_;
  routes_[index] = {value, prefix_len, action, index};
  const std::uint32_t masked = value & LpmPrefixMask(prefix_len);
  std::vector<std::size_t>& bucket =
      by_prefix_[LpmPrefixKey(masked, prefix_len)];
  bucket.insert(std::lower_bound(bucket.begin(), bucket.end(), index), index);
  delta_.Note(TableDeltaOp::kInsert, index);
  dirty_ = true;
  return index;
}

void LpmTable::WithdrawRoute(std::size_t route_index) {
  if (route_index >= routes_.size()) {
    throw std::out_of_range("LpmTable::WithdrawRoute: index out of range");
  }
  if (live_[route_index] == 0) {
    throw std::invalid_argument("LpmTable::WithdrawRoute: route withdrawn");
  }
  live_[route_index] = 0;
  free_list_.push_back(route_index);
  --live_count_;
  const LpmFlatEngine::Route route = routes_[route_index];
  const std::uint32_t masked = route.value & LpmPrefixMask(route.prefix_len);
  const auto it = by_prefix_.find(LpmPrefixKey(masked, route.prefix_len));
  std::vector<std::size_t>& bucket = it->second;
  bucket.erase(std::lower_bound(bucket.begin(), bucket.end(), route_index));
  if (bucket.empty()) by_prefix_.erase(it);
  staged_withdrawals_.push_back(route);
  delta_.Note(TableDeltaOp::kErase, route_index);
  dirty_ = true;
}

const LpmFlatEngine::Route* LpmTable::FindCover(
    const LpmFlatEngine::Route& route) const {
  // Deepest live covering prefix wins; a same-length duplicate (same
  // prefix, different index) covers too and resolves to the lowest
  // index, since buckets are kept ascending.
  for (int len = route.prefix_len; len >= 0; --len) {
    const std::uint32_t masked = route.value & LpmPrefixMask(len);
    const auto it = by_prefix_.find(LpmPrefixKey(masked, len));
    if (it == by_prefix_.end()) continue;
    return &routes_[it->second.front()];
  }
  return nullptr;
}

std::shared_ptr<LpmTableSnapshot> LpmTable::BuildSnapshot(
    const std::shared_ptr<const LpmTableSnapshot>& prev, bool use_delta,
    std::size_t& patched_rows) {
  auto snap = std::make_shared<LpmTableSnapshot>();
  snap->engine.BindTelemetry(telemetry_);
  if (use_delta) {
    snap->engine.CompileDeltaFrom(prev->engine);
    // Withdrawals first: each victim's slots are rewritten with the best
    // surviving cover, leaving the structure equal to "previous set
    // minus withdrawn routes"; staged inserts then arbitrate in by the
    // same (depth, index) order a full rebuild uses.
    for (const LpmFlatEngine::Route& route : staged_withdrawals_) {
      snap->engine.PatchErase(route, FindCover(route));
      ++patched_rows;
    }
    for (const std::size_t index : delta_.touched()) {
      if (live_[index] == 0) continue;  // withdrawn, not re-added
      snap->engine.PatchInsert(routes_[index]);
      ++patched_rows;
    }
    return snap;
  }
  std::vector<LpmFlatEngine::Route> view;
  view.reserve(live_count_);
  for (std::size_t i = 0; i < routes_.size(); ++i) {
    if (live_[i] != 0) view.push_back(routes_[i]);
  }
  snap->engine.Compile(view);
  return snap;
}

void LpmTable::Commit() {
  if (!dirty_) return;
  const std::uint64_t t0 = NowNs();
  const std::shared_ptr<const LpmTableSnapshot> prev = published_.Acquire();
  const std::size_t live = live_count_;
  // Page patches fold in exactly (no overlay grows), so overlay_rows
  // is 0.
  const bool use_delta = config_.delta_policy.UseDelta(
      delta_.touched().size(), prev->live_routes, 0);
  std::size_t patched_rows = 0;
  std::shared_ptr<LpmTableSnapshot> snap =
      BuildSnapshot(prev, use_delta, patched_rows);
  snap->live_routes = live;
  // One search cycle of the 32-bit TCAM array holding the live routes.
  snap->search_energy_j =
      static_cast<double>(live * 32) * technology_.search_energy_per_bit_j;
  snap->search_latency_s = technology_.search_latency_s;
  snap->epoch = ++commits_;
  delta_.Clear();
  staged_withdrawals_.clear();

  const std::uint64_t commit_ns = NowNs() - t0;
  ++commit_stats_.commits;
  commit_stats_.last_commit_ns = commit_ns;
  commit_stats_.last_was_delta = use_delta;
  if (use_delta) {
    ++commit_stats_.delta_commits;
    commit_stats_.delta_rows += patched_rows;
    commit_telemetry_.delta_rows.Inc(patched_rows);
  } else {
    ++commit_stats_.full_recompiles;
    commit_telemetry_.full_recompiles.Inc();
  }
  commit_telemetry_.commit_ns.Inc(commit_ns);

  dirty_ = false;
  published_.Publish(std::move(snap));
}

void LpmTable::BindTelemetry(telemetry::MetricsRegistry& registry,
                             const std::string& prefix) {
  telemetry_ = telemetry::MakeSearchEngineCounters(registry, prefix);
  commit_telemetry_ = telemetry::MakeTableCommitCounters(registry);
  if (!dirty_) {
    // Re-publish the committed route set with counters attached so a
    // table bound after its first Commit still reports.
    dirty_ = true;
    Commit();
  }
}

}  // namespace analognf::tcam
