// Ablation B (RQ2): precision of the analog match under line losses,
// interference and converter resolution.
//
// The paper: "the match output can lose its precision depending upon the
// line losses, signal strength and interference from the neighboring
// components... an understanding of the network functions depending upon
// their precision requirements [is required]." We sweep channel noise
// and DAC resolution and report (a) PDP transfer-function error and
// (b) end-to-end AQM delay conformance — showing why AQM tolerates the
// analog domain while exact-match functions would not.
#include "bench_util.hpp"

#include <cmath>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/common/units.hpp"
#include "analognf/sim/queue_sim.hpp"

namespace {

using namespace analognf;

// RMS error of the realised PDP ramp vs the ideal one, over [1,4] V.
double TransferRmsError(const analog::ChannelParams& channel,
                        unsigned dac_bits, std::size_t levels) {
  aqm::AnalogAqmConfig config;
  config.hardware.channel = channel;
  config.hardware.state_levels = levels;
  config.dac_bits = dac_bits;
  aqm::AnalogAqm policy(config);

  // Ideal ramp in feature space: PDP 0 below 10 ms sojourn, linear to
  // 1.0 at 30 ms, then saturated.
  auto ideal = [](double sojourn_s) {
    if (sojourn_s <= 0.010) return 0.0;
    if (sojourn_s >= 0.030) return 1.0;
    return (sojourn_s - 0.010) / 0.020;
  };
  RunningStats err2;
  for (double sojourn = 0.0; sojourn <= 0.060 + 1e-12; sojourn += 0.001) {
    // Full front-end path: feature -> DAC -> search line -> pCAM.
    const std::vector<double> volts = policy.FeaturesToVoltages(
        {sojourn, 0.0, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
    const double diff = policy.EvaluatePdp(volts) - ideal(sojourn);
    err2.Add(diff * diff);
  }
  return std::sqrt(err2.mean());
}

double DelayConformance(const analog::ChannelParams& channel,
                        std::uint64_t seed) {
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = 1800.0;
  net::MetaSource source(mc, seed);
  aqm::AnalogAqmConfig ac;
  ac.hardware.channel = channel;
  aqm::AnalogAqm policy(ac);
  sim::QueueSimConfig sc;
  sc.duration_s = 8.0;
  sc.warmup_s = 2.0;
  sc.link_rate_bps = 10.0e6;
  sim::QueueSimulator sim(sc, source, policy);
  return sim.Run().DelayFractionWithin(0.0, 0.035);
}

void Report() {
  bench::Banner("Ablation B: analog precision vs noise (RQ2)");

  Table transfer({"AWGN sigma (V)", "line gain", "DAC bits",
                  "device levels", "PDP RMS error"});
  for (double sigma : {0.0, 0.02, 0.05, 0.1, 0.2}) {
    analog::ChannelParams ch;
    ch.awgn_sigma_v = sigma;
    transfer.AddRow({FormatSig(sigma, 3), "1.0", "10", "64",
                     FormatSig(TransferRmsError(ch, 10, 64), 3)});
  }
  {
    analog::ChannelParams lossy;
    lossy.line_gain = 0.9;
    transfer.AddRow({"0", "0.9", "10", "64",
                     FormatSig(TransferRmsError(lossy, 10, 64), 3)});
    analog::ChannelParams xtalk;
    xtalk.interference_peak_v = 0.1;
    transfer.AddRow({"0 (+0.1 V xtalk)", "1.0", "10", "64",
                     FormatSig(TransferRmsError(xtalk, 10, 64), 3)});
  }
  for (unsigned bits : {4u, 6u, 8u, 12u}) {
    transfer.AddRow({"0", "1.0", std::to_string(bits), "64",
                     FormatSig(TransferRmsError({}, bits, 64), 3)});
  }
  for (std::size_t levels : {4u, 8u, 16u, 256u}) {
    transfer.AddRow({"0", "1.0", "10", std::to_string(levels),
                     FormatSig(TransferRmsError({}, 10, levels), 3)});
  }
  bench::PrintTable(transfer);

  Table conformance({"AWGN sigma (V)", "delays <= 35 ms"});
  for (double sigma : {0.0, 0.05, 0.1, 0.2}) {
    analog::ChannelParams ch;
    ch.awgn_sigma_v = sigma;
    conformance.AddRow(
        {FormatSig(sigma, 3),
         FormatSig(DelayConformance(ch, 31) * 100.0, 3) + " %"});
  }
  bench::PrintTable(conformance);

  bench::Line("takeaway: the AQM (low precision requirement) tolerates "
              "substantial analog noise; precision-critical functions "
              "(IP lookup) must stay digital — the Fig. 5 split");
}

// --- timings ------------------------------------------------------------

void BM_NoisyEvaluate(benchmark::State& state) {
  aqm::AnalogAqmConfig config;
  config.hardware.channel =
      analog::ChannelParams::Noisy(0.05);
  aqm::AnalogAqm policy(config);
  std::vector<double> volts(policy.table().spec().read.size(), -0.5);
  volts[4] = 1.2;
  volts[0] = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.EvaluatePdp(volts));
  }
}
BENCHMARK(BM_NoisyEvaluate);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
