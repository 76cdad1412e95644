// Fig. 8: Queue management by using the analog AQM.
//
// Poisson-distributed flows into a 10 Mb/s queue, with a congestion
// phase. Without AQM, packet delays climb without bound; the pCAM AQM
// (programmed for 20 ms average delay, 10 ms maximum deviation) holds
// the delay inside the bound by observing the rate of change of delays
// and selectively dropping.
//
// Future work 8(2) closes the report: a self-learning crossbar
// perceptron, started from blank weights and taught only by the ideal
// ramp of the programmed bound, against the programmed pCAM AQM in 5 s
// windows of a 30 s overload, to expose its learning curve. (The
// steady-state comparison is the `learned` collection of
// bench_aqm_shootout.)
#include "bench_util.hpp"

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/cognitive/learned_aqm.hpp"
#include "analognf/common/units.hpp"
#include "analognf/sim/queue_sim.hpp"

namespace {

using namespace analognf;

sim::QueueSimConfig Fig8Config() {
  sim::QueueSimConfig c;
  c.duration_s = 10.0;
  c.warmup_s = 2.0;
  c.link_rate_bps = 10.0e6;           // 1250 pps of 1000-byte packets
  c.phases = {{2.0, 2000.0}};         // congestion begins at t = 2 s
  return c;
}

net::MetaSource Fig8Traffic(std::uint64_t seed) {
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = 800.0;  // pre-congestion load
  return net::MetaSource(mc, seed);
}

struct Fig8Run {
  sim::SimReport report;
  double aqm_energy_j = 0.0;  // the pCAM AQM's ledger; 0 without AQM
};

Fig8Run Run(bool with_aqm) {
  net::MetaSource source = Fig8Traffic(2023);
  const sim::QueueSimConfig config = Fig8Config();
  if (with_aqm) {
    aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
    sim::QueueSimulator s(config, source, policy);
    sim::SimReport report = s.Run();
    return {std::move(report), policy.ConsumedEnergyJ()};
  }
  aqm::TailDropOnly policy;
  sim::QueueSimulator s(config, source, policy);
  return {s.Run()};
}

sim::SimReport RunOverload(aqm::AqmPolicy& policy) {
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = 1800.0;
  net::MetaSource source(mc, 77);
  sim::QueueSimConfig sc;
  sc.duration_s = 30.0;
  sc.warmup_s = 0.0;  // we want to see the learning transient
  sc.link_rate_bps = 10.0e6;
  sim::QueueSimulator sim(sc, source, policy);
  return sim.Run();
}

void PrintLearningCurve() {
  bench::Banner("Fig. 8 future work 8(2): self-learning AQM (crossbar "
                "perceptron) vs programmed pCAM AQM, 5 s windows");
  cognitive::LearnedAqm learned(cognitive::LearnedAqmConfig{});
  const sim::SimReport learned_report = RunOverload(learned);

  aqm::AnalogAqm programmed(aqm::AnalogAqmConfig{});
  const sim::SimReport programmed_report = RunOverload(programmed);

  Table curve({"window (s)", "learned: mean delay (ms)",
               "learned: within 30 ms", "programmed: mean delay (ms)"});
  for (double t0 = 0.0; t0 < 30.0; t0 += 5.0) {
    const double t1 = t0 + 5.0;
    RunningStats learned_window;
    RunningStats programmed_window;
    std::size_t inside = 0;
    for (const auto& p : learned_report.link.delay.points()) {
      if (p.time < t0 || p.time >= t1) continue;
      learned_window.Add(p.value);
      if (p.value <= 0.030) ++inside;
    }
    for (const auto& p : programmed_report.link.delay.points()) {
      if (p.time >= t0 && p.time < t1) programmed_window.Add(p.value);
    }
    const double within =
        learned_window.count() == 0
            ? 0.0
            : static_cast<double>(inside) /
                  static_cast<double>(learned_window.count());
    curve.AddRow({FormatSig(t0, 3) + "-" + FormatSig(t1, 3),
                  FormatSig(ToMillis(learned_window.mean()), 4),
                  FormatSig(within * 100.0, 3) + " %",
                  FormatSig(ToMillis(programmed_window.mean()), 4)});
  }
  bench::PrintTable(curve);
  bench::Line("perceptron updates: " +
              std::to_string(learned.perceptron().updates()) +
              ", final weights include sojourn gain " +
              FormatSig(learned.perceptron().weights()[0], 3));
}

void Report() {
  bench::Banner("Fig. 8: packet delay vs time, without AQM vs pCAM AQM");
  const Fig8Run without_run = Run(false);
  const Fig8Run with_run = Run(true);
  const sim::SimReport& without = without_run.report;
  const sim::SimReport& with = with_run.report;

  Table series({"time (s)", "delay without AQM (ms)",
                "delay with pCAM AQM (ms)"});
  const TimeSeries without_ds = without.link.delay.Downsample(24);
  const TimeSeries with_ds = with.link.delay.Downsample(24);
  const std::size_t rows = std::min(without_ds.size(), with_ds.size());
  for (std::size_t i = 0; i < rows; ++i) {
    series.AddRow({FormatSig(without_ds[i].time, 3),
                   FormatSig(ToMillis(without_ds[i].value), 4),
                   FormatSig(ToMillis(with_ds[i].value), 4)});
  }
  bench::PrintTable(series);

  Table summary({"metric", "without AQM", "with pCAM AQM"});
  summary.AddRow({"mean delay (post-congestion)",
                  FormatDuration(without.link.delay_stats.mean()),
                  FormatDuration(with.link.delay_stats.mean())});
  summary.AddRow({"max delay", FormatDuration(without.link.delay_stats.max()),
                  FormatDuration(with.link.delay_stats.max())});
  summary.AddRow(
      {"fraction of delays <= 30 ms",
       FormatSig(without.link.DelayFractionWithin(0.0, 0.030) * 100.0, 3) +
           " %",
       FormatSig(with.link.DelayFractionWithin(0.0, 0.030) * 100.0, 3) +
           " %"});
  summary.AddRow({"AQM drops",
                  std::to_string(without.queue_stats.dropped_aqm),
                  std::to_string(with.queue_stats.dropped_aqm)});
  summary.AddRow({"delivered packets",
                  std::to_string(without.link.delivered_packets),
                  std::to_string(with.link.delivered_packets)});
  summary.AddRow({"pCAM+DAC energy", FormatEnergy(without_run.aqm_energy_j),
                  FormatEnergy(with_run.aqm_energy_j)});
  bench::PrintTable(summary);

  bench::Line("paper: without AQM delays keep increasing sharply; pCAM "
              "AQM keeps delays within the programmed 20 ms +/- 10 ms");

  PrintLearningCurve();
}

// --- timings ------------------------------------------------------------

void BM_Fig8WithAnalogAqm(benchmark::State& state) {
  for (auto _ : state) {
    net::MetaSource source = Fig8Traffic(7);
    sim::QueueSimConfig c = Fig8Config();
    c.duration_s = 2.0;
    c.warmup_s = 0.5;
    c.phases.clear();
    aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
    sim::QueueSimulator s(c, source, policy);
    benchmark::DoNotOptimize(s.Run());
  }
}
BENCHMARK(BM_Fig8WithAnalogAqm)->Unit(benchmark::kMillisecond);

void BM_Fig8TailDrop(benchmark::State& state) {
  for (auto _ : state) {
    net::MetaSource source = Fig8Traffic(7);
    sim::QueueSimConfig c = Fig8Config();
    c.duration_s = 2.0;
    c.warmup_s = 0.5;
    c.phases.clear();
    aqm::TailDropOnly policy;
    sim::QueueSimulator s(c, source, policy);
    benchmark::DoNotOptimize(s.Run());
  }
}
BENCHMARK(BM_Fig8TailDrop)->Unit(benchmark::kMillisecond);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
