// Fig. 7: Analog AQM outputs for the memristor dataset.
//
//  (a) PDP vs input voltage in [1, 4] V  — the sojourn-time stage swept
//      through its DAC range with the other features quiescent.
//  (b) PDP vs input voltage in [-2, 1] V — the first-derivative stage
//      swept through its (signed) range.
//
// Both sweeps run on device-backed pCAM cells programmed from the
// synthetic Nb:SrTiO3 state ladder, the same substitution DESIGN.md
// documents for the paper's "memristor dataset".
//
// RQ2 then asks how precise this transfer function stays on imprecise
// analog hardware: the last table reports the realised ramp's RMS error
// against the ideal one under channel noise, line loss, crosstalk, DAC
// resolution and device state count. (Its end-to-end counterpart is the
// `noise` collection of bench_aqm_shootout.)
#include "bench_util.hpp"

#include <cmath>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/common/stats.hpp"

namespace {

using namespace analognf;

aqm::AnalogAqm MakeAqm() {
  aqm::AnalogAqmConfig config;
  config.hardware.state_levels = 1024;
  return aqm::AnalogAqm(config);
}

std::vector<double> NeutralFeatures(const aqm::AnalogAqm& policy) {
  // Quiescent derivatives sit at the modulator-neutral voltage (-0.5 V);
  // the buffer stage is neutral below 50% occupancy (1.2 V).
  std::vector<double> volts(policy.table().spec().read.size(), -0.5);
  volts[4] = 1.2;
  return volts;
}

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

void PrintTransferPrecision() {
  bench::Banner("Fig. 7 precision (RQ2): PDP ramp RMS error vs analog "
                "noise, DAC bits and device levels");
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
}

void Report() {
  aqm::AnalogAqm policy = MakeAqm();

  bench::Banner("Fig. 7a: PDP vs input in [1, 4] V (sojourn stage)");
  Table a({"input V", "PDP"});
  for (double v = 1.0; v <= 4.0 + 1e-9; v += 0.2) {
    auto volts = NeutralFeatures(policy);
    volts[0] = v;
    a.AddRow({FormatSig(v, 3), FormatSig(policy.EvaluatePdp(volts), 4)});
  }
  bench::PrintTable(a);

  bench::Banner("Fig. 7b: PDP vs input in [-2, 1] V (d/dt stage)");
  Table b({"input V", "PDP"});
  for (double v = -2.0; v <= 1.0 + 1e-9; v += 0.2) {
    auto volts = NeutralFeatures(policy);
    volts[0] = 2.0;  // mid-ramp sojourn so the modulation is visible
    volts[1] = v;
    b.AddRow({FormatSig(v, 3), FormatSig(policy.EvaluatePdp(volts), 4)});
  }
  bench::PrintTable(b);

  bench::Line("paper: PDP ranges 0..1 over the analog input, rising with "
              "congestion features mapped to hardware voltages via DACs");

  PrintTransferPrecision();
}

// --- timings ------------------------------------------------------------

void BM_FullPdpEvaluation(benchmark::State& state) {
  aqm::AnalogAqm policy = MakeAqm();
  auto volts = NeutralFeatures(policy);
  volts[0] = 2.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(policy.EvaluatePdp(volts));
  }
}
BENCHMARK(BM_FullPdpEvaluation);

void BM_AdmissionDecision(benchmark::State& state) {
  aqm::AnalogAqm policy = MakeAqm();
  aqm::AqmContext ctx;
  ctx.sojourn_s = 0.020;
  ctx.queue_packets = 20;
  ctx.queue_bytes = 20000;
  ctx.packet.size_bytes = 1000;
  for (auto _ : state) {
    ctx.now_s += 0.001;
    benchmark::DoNotOptimize(policy.DecideOnEnqueue(ctx));
  }
}
BENCHMARK(BM_AdmissionDecision);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
