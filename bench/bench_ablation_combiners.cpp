// Ablation D (design choice in DESIGN.md): the Fig. 4b series
// composition rule. The paper composes pCAM stages as a *product*; this
// bench runs the same AQM program under the alternative fuzzy combiners
// (min, arithmetic mean, geometric mean) to show why product is the
// right default for drop probabilities.
#include "bench_util.hpp"

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/common/units.hpp"
#include "analognf/sim/queue_sim.hpp"

namespace {

using namespace analognf;

sim::SimReport RunWithCombiner(core::CombineMode mode, std::uint64_t seed) {
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = 1800.0;
  net::MetaSource source(mc, seed);
  aqm::AnalogAqmConfig ac;
  ac.combine = mode;
  aqm::AnalogAqm policy(ac);
  sim::QueueSimConfig sc;
  sc.duration_s = 10.0;
  sc.warmup_s = 2.0;
  sc.link_rate_bps = 10.0e6;
  sim::QueueSimulator sim(sc, source, policy);
  return sim.Run();
}

void Report() {
  bench::Banner("Ablation D: stage-combination rule (Fig. 4b series = "
                "product) vs fuzzy alternatives");
  Table table({"combiner", "mean delay", "p99 delay", "within 30 ms",
               "drop rate"});
  for (core::CombineMode mode :
       {core::CombineMode::kProduct, core::CombineMode::kMin,
        core::CombineMode::kArithmeticMean,
        core::CombineMode::kGeometricMean}) {
    const sim::SimReport r = RunWithCombiner(mode, 53);
    const auto delays = r.delay.ValuesFrom(r.warmup_s);
    table.AddRow({ToString(mode), FormatDuration(r.delay_stats.mean()),
                  FormatDuration(Percentile(delays, 0.99)),
                  FormatSig(r.DelayFractionWithin(0.0, 0.030) * 100.0, 3) +
                      " %",
                  FormatSig(r.DropRate() * 100.0, 3) + " %"});
  }
  bench::PrintTable(table);
  bench::Line("note: mean/min mix the base ramp with the neutral-at-1 "
              "modulator stages symmetrically, which inflates the PDP at "
              "low delays; the product keeps the base ramp's zero region "
              "intact, which is why the paper's series composition works");
}

// --- timings ------------------------------------------------------------

void BM_CombinerEvaluate(benchmark::State& state) {
  const auto mode = static_cast<core::CombineMode>(state.range(0));
  aqm::AnalogAqmConfig ac;
  ac.combine = mode;
  aqm::AnalogAqm policy(ac);
  std::vector<double> volts(policy.table().spec().read.size(), -0.5);
  volts[4] = 1.2;
  volts[0] = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.EvaluatePdp(volts));
  }
}
BENCHMARK(BM_CombinerEvaluate)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
