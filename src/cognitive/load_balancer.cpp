#include "analognf/cognitive/load_balancer.hpp"

#include <stdexcept>
#include <string>

namespace analognf::cognitive {

namespace {

// Backend load (0..1) onto the search-voltage range [1, 4] V.
double LoadToVolts(double load) { return 1.0 + 3.0 * load; }

// The load level the dispatcher asks for ("a lightly loaded backend").
constexpr double kPreferredLoad = 0.2;

// Deterministic-match half-width and probabilistic skirt of each
// backend's policy band, in volts on the [1, 4] V load axis.
constexpr double kToleranceV = 0.15;
constexpr double kSkirtV = 0.9;

core::PcamParams PolicyForLoad(double load) {
  return core::PcamParams::MakeBand(LoadToVolts(load), kToleranceV, kSkirtV);
}

// Scrambles a flow hash into a unit draw in [0, 1). SplitMix64-style
// finalizer so nearby hashes land far apart; the top 53 bits become the
// mantissa of a double in [0, 1).
double UnitDrawOf(std::uint64_t flow_hash) {
  std::uint64_t z = flow_hash + 0x9e3779b97f4a7c15ull;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53;
}

}  // namespace

AnalogLoadBalancer::AnalogLoadBalancer(std::size_t backend_count,
                                       LoadBalancerConfig config)
    : table_(/*field_count=*/1, config.hardware),
      query_({LoadToVolts(kPreferredLoad)}) {
  if (backend_count == 0) {
    throw std::invalid_argument("AnalogLoadBalancer: zero backends");
  }
  loads_.assign(backend_count, 0.0);
  for (std::size_t b = 0; b < backend_count; ++b) {
    table_.Insert({"backend-" + std::to_string(b),
                   {PolicyForLoad(loads_[b])},
                   static_cast<std::uint32_t>(b)});
  }
  table_.Commit();
}

void AnalogLoadBalancer::UpdateLoad(std::size_t backend, double load) {
  if (!(load >= 0.0) || !(load <= 1.0)) {
    throw std::invalid_argument("UpdateLoad: load outside [0, 1]");
  }
  loads_.at(backend) = load;
  table_.ProgramField(backend, 0, PolicyForLoad(load));
  // Single-row reprogram: the table's delta commit refreshes one row.
  table_.Commit();
}

std::optional<std::size_t> AnalogLoadBalancer::PickForFlow(
    std::uint64_t flow_hash) {
  const auto pick = table_.SampleWithDraw(query_, UnitDrawOf(flow_hash));
  if (!pick.has_value()) return std::nullopt;
  return static_cast<std::size_t>(pick->action);
}

std::optional<std::size_t> AnalogLoadBalancer::Pick(
    analognf::RandomStream& rng) {
  const auto pick = table_.SampleByDegree(query_, rng);
  if (!pick.has_value()) return std::nullopt;
  return static_cast<std::size_t>(pick->action);
}

}  // namespace analognf::cognitive
