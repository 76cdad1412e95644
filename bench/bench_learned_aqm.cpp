// Future-work ablation (Sec. 8): self-learning neuromorphic AQM vs the
// programmed pCAM AQM.
//
// The learned policy starts from blank crossbar weights (it drops ~50%
// of everything), teaches itself the programmed latency bound online,
// and converges to pCAM-class delay control. The bench reports delay
// conformance in consecutive time windows to expose the learning curve,
// then the end-state comparison against the programmed AQM.
#include "bench_util.hpp"

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/cognitive/learned_aqm.hpp"
#include "analognf/common/units.hpp"
#include "analognf/sim/queue_sim.hpp"

namespace {

using namespace analognf;

sim::SimReport RunPolicy(aqm::AqmPolicy& policy, double duration_s,
                         std::uint64_t seed) {
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = 1800.0;
  net::MetaSource source(mc, seed);
  sim::QueueSimConfig sc;
  sc.duration_s = duration_s;
  sc.warmup_s = 0.0;  // we want to see the learning transient
  sc.link_rate_bps = 10.0e6;
  sim::QueueSimulator sim(sc, source, policy);
  return sim.Run();
}

void Report() {
  bench::Banner(
      "Future work: self-learning AQM (crossbar perceptron) vs programmed "
      "pCAM AQM");

  cognitive::LearnedAqmConfig lc;
  lc.perceptron.learning_rate = 0.25;
  lc.perceptron.activation_gain = 4.0;
  cognitive::LearnedAqm learned(lc);
  const sim::SimReport learned_report = RunPolicy(learned, 30.0, 77);

  aqm::AnalogAqm programmed(aqm::AnalogAqmConfig{});
  const sim::SimReport programmed_report = RunPolicy(programmed, 30.0, 77);

  Table curve({"window (s)", "learned: mean delay (ms)",
               "learned: within 30 ms", "programmed: mean delay (ms)"});
  for (double t0 = 0.0; t0 < 30.0; t0 += 5.0) {
    const double t1 = t0 + 5.0;
    auto window_stats = [&](const sim::SimReport& r) {
      RunningStats stats;
      for (const auto& p : r.delay.points()) {
        if (p.time >= t0 && p.time < t1) stats.Add(p.value);
      }
      return stats;
    };
    auto window_within = [&](const sim::SimReport& r) {
      std::size_t inside = 0;
      std::size_t total = 0;
      for (const auto& p : r.delay.points()) {
        if (p.time < t0 || p.time >= t1) continue;
        ++total;
        if (p.value <= 0.030) ++inside;
      }
      return total == 0 ? 0.0
                        : static_cast<double>(inside) /
                              static_cast<double>(total);
    };
    const RunningStats learned_window = window_stats(learned_report);
    const RunningStats programmed_window = window_stats(programmed_report);
    curve.AddRow({FormatSig(t0, 3) + "-" + FormatSig(t1, 3),
                  FormatSig(ToMillis(learned_window.mean()), 4),
                  FormatSig(window_within(learned_report) * 100.0, 3) + " %",
                  FormatSig(ToMillis(programmed_window.mean()), 4)});
  }
  bench::PrintTable(curve);

  bench::Line("perceptron updates: " +
              std::to_string(learned.perceptron().updates()) +
              ", final weights include sojourn gain " +
              FormatSig(learned.perceptron().weights()[0], 3));
  bench::Line("paper Sec. 8: 'cognitive models deployment ... for "
              "self-learning line-rate network functions in the data "
              "plane' — the learned law converges to the programmed "
              "bound without explicit pCAM parameters");
}

// --- timings ------------------------------------------------------------

void BM_LearnedInference(benchmark::State& state) {
  cognitive::LearnedAqmConfig c;
  c.learn_online = false;
  cognitive::LearnedAqm policy(c);
  aqm::AqmContext ctx;
  ctx.sojourn_s = 0.02;
  ctx.queue_packets = 20;
  ctx.queue_bytes = 20000;
  ctx.packet.size_bytes = 1000;
  for (auto _ : state) {
    ctx.now_s += 0.001;
    benchmark::DoNotOptimize(policy.ShouldDropOnEnqueue(ctx));
  }
}
BENCHMARK(BM_LearnedInference);

void BM_LearnedTrainStep(benchmark::State& state) {
  cognitive::PerceptronConfig c;
  c.inputs = 4;
  cognitive::CrossbarPerceptron p(c);
  const std::vector<double> features = {0.3, 0.1, 0.2, 0.0};
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.Train(features, 0.7));
  }
}
BENCHMARK(BM_LearnedTrainStep);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
