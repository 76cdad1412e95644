// Ablation A: how much do the higher-order derivative features (Fig. 6)
// matter?
//
// The paper argues the 1st derivative captures the rate of congestion
// growth, the 2nd improves PDP estimation, and the 3rd detects bursty
// periods. We run the same bursty (MMPP) workload with derivative
// orders 0..3 and report delay conformance to the programmed bound.
#include "bench_util.hpp"

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/common/units.hpp"
#include "analognf/sim/queue_sim.hpp"

namespace {

using namespace analognf;

sim::SimReport RunWithOrders(std::size_t orders, std::uint64_t seed) {
  net::MetaSourceConfig mc;
  mc.arrivals.process = net::ArrivalConfig::Process::kMmpp;
  mc.arrivals.rate_pps = 900.0;
  mc.arrivals.burst_factor = 4000.0 / 900.0;
  mc.arrivals.mean_calm_dwell_s = 0.4;
  mc.arrivals.mean_burst_dwell_s = 0.08;
  net::MetaSource source(mc, seed);

  aqm::AnalogAqmConfig ac;
  ac.derivative_orders = orders;
  aqm::AnalogAqm policy(ac);

  sim::QueueSimConfig sc;
  sc.duration_s = 12.0;
  sc.warmup_s = 2.0;
  sc.link_rate_bps = 10.0e6;
  sim::QueueSimulator sim(sc, source, policy);
  return sim.Run();
}

void Report() {
  bench::Banner(
      "Ablation A: derivative feature orders under bursty (MMPP) traffic");
  Table table({"orders", "fields", "mean delay", "p99 delay",
               "within 30 ms", "AQM drop rate"});
  for (std::size_t orders = 0; orders <= 3; ++orders) {
    const sim::SimReport report = RunWithOrders(orders, 17);
    const auto delays = report.delay.ValuesFrom(report.warmup_s);
    table.AddRow(
        {std::to_string(orders),
         std::to_string(2 * (orders + 1)),
         FormatDuration(report.delay_stats.mean()),
         FormatDuration(Percentile(delays, 0.99)),
         FormatSig(report.DelayFractionWithin(0.0, 0.030) * 100.0, 3) + " %",
         FormatSig(report.DropRate() * 100.0, 3) + " %"});
  }
  bench::PrintTable(table);
  bench::Line("paper (qualitative): higher-order derivatives let the AQM "
              "anticipate bursts; expect conformance to improve (or hold) "
              "as orders increase");
}

// --- timings ------------------------------------------------------------

void BM_AqmDecisionByOrder(benchmark::State& state) {
  aqm::AnalogAqmConfig ac;
  ac.derivative_orders = static_cast<std::size_t>(state.range(0));
  aqm::AnalogAqm policy(ac);
  aqm::AqmContext ctx;
  ctx.sojourn_s = 0.02;
  ctx.queue_packets = 20;
  ctx.queue_bytes = 20000;
  ctx.packet.size_bytes = 1000;
  for (auto _ : state) {
    ctx.now_s += 0.001;
    benchmark::DoNotOptimize(policy.ShouldDropOnEnqueue(ctx));
  }
  state.counters["pcam_stages"] =
      static_cast<double>(policy.table().spec().read.size());
}
BENCHMARK(BM_AqmDecisionByOrder)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
