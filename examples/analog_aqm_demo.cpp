// Analog AQM demo: the paper's proof-of-concept experiment (Fig. 8),
// runnable with your own parameters.
//
// Usage:
//   analog_aqm_demo [offered_pps] [target_ms] [deviation_ms] [duration_s]
// Defaults: 1800 pps offered into a 10 Mb/s link (1250 pps capacity),
// 20 ms target, 10 ms deviation, 10 s simulated.
#include <cstdio>
#include <cstdlib>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/aqm/controller.hpp"
#include "analognf/common/units.hpp"
#include "analognf/sim/queue_sim.hpp"

using namespace analognf;

int main(int argc, char** argv) {
  const double offered_pps = argc > 1 ? std::atof(argv[1]) : 1800.0;
  const double target_ms = argc > 2 ? std::atof(argv[2]) : 20.0;
  const double deviation_ms = argc > 3 ? std::atof(argv[3]) : 10.0;
  const double duration_s = argc > 4 ? std::atof(argv[4]) : 10.0;
  if (offered_pps <= 0 || target_ms <= 0 || deviation_ms <= 0 ||
      deviation_ms >= target_ms || duration_s <= 1.0) {
    std::fprintf(stderr,
                 "usage: %s [offered_pps>0] [target_ms>0] "
                 "[0<deviation_ms<target_ms] [duration_s>1]\n",
                 argv[0]);
    return 1;
  }

  // Traffic: Poisson flows, as in Sec. 6.
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = offered_pps;
  net::MetaSource source(mc, /*seed=*/2023);

  // The analog AQM, programmed for the requested latency bound.
  aqm::AnalogAqmConfig ac;
  ac.target_delay_s = target_ms * kMilli;
  ac.max_deviation_s = deviation_ms * kMilli;
  aqm::AnalogAqm policy(ac);
  aqm::CognitiveAqmController controller(policy);

  sim::QueueSimConfig sc;
  sc.duration_s = duration_s;
  sc.warmup_s = duration_s * 0.2;
  sc.link_rate_bps = 10.0e6;
  sim::QueueSimulator simulator(sc, source, policy, &controller);
  const sim::SimReport report = simulator.Run();

  std::printf("workload: %.0f pps offered, link capacity 1250 pps "
              "(%.0f%% load)\n",
              offered_pps, offered_pps / 12.5);
  std::printf("AQM program: %.0f ms target, +/- %.0f ms deviation\n\n",
              target_ms, deviation_ms);

  std::printf("%-10s %-12s\n", "time (s)", "delay (ms)");
  const TimeSeries trace = report.link.delay.Downsample(20);
  for (const auto& p : trace.points()) {
    std::printf("%-10.2f %-12.2f\n", p.time, ToMillis(p.value));
  }

  std::printf("\nmean delay: %.2f ms (bound: %.0f..%.0f ms)\n",
              ToMillis(report.link.delay_stats.mean()),
              target_ms - deviation_ms, target_ms + deviation_ms);
  std::printf("delays within bound + margin: %.1f%%\n",
              report.link.DelayFractionWithin(
                  0.0, (target_ms + deviation_ms + 5.0) * kMilli) *
                  100.0);
  std::printf("AQM drops: %llu of %llu offered (%.1f%%)\n",
              static_cast<unsigned long long>(report.queue_stats.dropped_aqm),
              static_cast<unsigned long long>(report.link.offered_packets),
              report.link.DropRate() * 100.0);
  std::printf("controller adaptations (update_pCAM): %llu, final scale "
              "%.2f\n",
              static_cast<unsigned long long>(controller.adaptations()),
              controller.current_scale());
  std::printf("pCAM + DAC energy for %llu decisions: %.3g J\n",
              static_cast<unsigned long long>(
                  policy.ledger().Of(energy::category::kPcamSearch)
                      .operations),
              policy.ConsumedEnergyJ());
  return 0;
}
