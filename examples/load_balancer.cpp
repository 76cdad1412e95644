// Cognitive load balancer: probabilistic match-action beyond AQM.
//
// The paper lists load balancing among the cognitive network functions
// pCAM enables (Fig. 5). cognitive::AnalogLoadBalancer stores one analog
// policy row per backend over the backend's *reported load* mapped to a
// voltage; a query for "a lightly loaded backend" gets probabilistic
// matches against every row at once, and the analog match degrees weight
// the pick — backends near the preferred load band draw proportionally
// more flows, with zero per-flow digital bookkeeping. The same engine
// powers the switch's in-pipeline LoadBalancerStage
// (SwitchConfig::enable_load_balancer).
#include <cstdio>
#include <map>
#include <vector>

#include "analognf/cognitive/load_balancer.hpp"
#include "analognf/common/rng.hpp"

using namespace analognf;

int main() {
  cognitive::LoadBalancerConfig config;
  config.hardware.state_levels = 256;
  cognitive::AnalogLoadBalancer lb(/*backend_count=*/4, config);

  // Four backends with different current loads.
  const char* names[] = {"backend-a", "backend-b", "backend-c", "backend-d"};
  const double loads[] = {0.10, 0.35, 0.60, 0.90};
  for (std::size_t i = 0; i < lb.backends(); ++i) lb.UpdateLoad(i, loads[i]);

  analognf::RandomStream rng(7);
  auto dispatch = [&](int flows) {
    std::map<std::size_t, int> counts;
    for (int i = 0; i < flows; ++i) {
      const auto pick = lb.Pick(rng);
      if (pick.has_value()) ++counts[*pick];
    }
    return counts;
  };

  // The dispatcher always queries for "idle-ish" (preferred load 0.2):
  // rows whose load is close match strongly, distant rows match weakly.
  std::puts("match degrees for query 'load ~ 0.2':");
  (void)lb.Pick(rng);
  for (std::size_t i = 0; i < lb.backends(); ++i) {
    std::printf("  %s (load %.2f): degree %.3f\n", names[i], lb.load(i),
                lb.last_degrees()[i]);
  }

  std::puts("\ndispatching 10000 flows by analog match degree:");
  for (const auto& [backend, count] : dispatch(10000)) {
    std::printf("  %s <- %d flows\n", names[backend], count);
  }

  // backend-a fills up: UpdateLoad reprograms its stored policy row
  // (update_pCAM) and traffic shifts away — no per-flow state touched.
  std::puts("\nbackend-a load rises to 0.85; reprogramming its policy...");
  lb.UpdateLoad(0, 0.85);
  for (const auto& [backend, count] : dispatch(10000)) {
    std::printf("  %s <- %d flows\n", names[backend], count);
  }

  // Flow-sticky picks: the flow hash supplies the unit draw, so a flow
  // keeps its backend for as long as the stored loads are unchanged
  // (the ECMP property the in-switch stage relies on).
  const std::uint64_t flow_hash = 0x5eedf00dcafe1234ull;
  const auto first = lb.PickForFlow(flow_hash);
  const auto second = lb.PickForFlow(flow_hash);
  if (first.has_value() && second.has_value()) {
    std::printf("\nflow 0x%llx sticks to %s (picked twice: %s, %s)\n",
                static_cast<unsigned long long>(flow_hash), names[*first],
                names[*first], names[*second]);
  }

  std::printf("\ntotal pCAM search energy: %.3g J\n", lb.ConsumedEnergyJ());
  return 0;
}
