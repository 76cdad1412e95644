// Fig. 4: (a) the pCAM cell's five-region transfer function, and
// (b) the series composition whose output is the product of matches.
// Then the transfer function's retention drift: Nb:SrTiO3 interface
// states relax over time (Goossens 2018), so a programmed cell's
// thresholds migrate toward the HRS rail. (The end-to-end effect on the
// AQM is the `retention` collection of bench_aqm_shootout.)
#include "bench_util.hpp"

#include "analognf/core/pcam_cell.hpp"
#include "analognf/core/pcam_hardware.hpp"
#include "analognf/core/pipeline.hpp"

namespace {

using namespace analognf;
using core::PcamParams;

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

void Report() {
  bench::Banner("Fig. 4a: pCAM transfer function (M1=1, M2=2, M3=3, M4=4)");

  const core::PcamCell cell(PcamParams::MakeTrapezoid(1.0, 2.0, 3.0, 4.0,
                                                      /*pmax=*/1.0,
                                                      /*pmin=*/0.0));
  Table sweep({"input V", "output", "region"});
  for (double v = 0.0; v <= 5.0 + 1e-9; v += 0.25) {
    sweep.AddRow({FormatSig(v, 3), FormatSig(cell.Evaluate(v), 4),
                  ToString(cell.RegionOf(v))});
  }
  bench::PrintTable(sweep);

  bench::Banner("Fig. 4b: series composition = product of stage outputs");
  const std::vector<core::StageConfig> stages = {
      {"stage-1", PcamParams::MakeTrapezoid(1.0, 2.0, 3.0, 4.0)},
      {"stage-2", PcamParams::MakeTrapezoid(0.0, 1.0, 2.0, 3.0)},
      {"stage-3", PcamParams::MakeTrapezoid(2.0, 3.0, 4.0, 5.0)},
  };
  core::HardwarePcamConfig hardware;
  hardware.state_levels = 4096;
  core::PcamPipeline pipeline(stages, hardware);
  Table combo({"in1", "in2", "in3", "out1", "out2", "out3", "product"});
  const std::vector<std::vector<double>> probes = {
      {2.5, 1.5, 3.5},  // all deterministic matches -> 1
      {1.5, 1.5, 3.5},  // one probabilistic -> 0.5
      {1.5, 0.5, 3.5},  // probabilistic x probabilistic
      {0.5, 1.5, 3.5},  // one mismatch -> 0
  };
  for (const auto& probe : probes) {
    const auto r = pipeline.Evaluate(probe);
    combo.AddRow({FormatSig(probe[0], 3), FormatSig(probe[1], 3),
                  FormatSig(probe[2], 3), FormatSig(r.stage_outputs[0], 3),
                  FormatSig(r.stage_outputs[1], 3),
                  FormatSig(r.stage_outputs[2], 3),
                  FormatSig(r.combined, 3)});
  }
  bench::PrintTable(combo);
  bench::Line("paper: five programmable regions; series pCAMs multiply "
              "deterministic and probabilistic matches");

  bench::Banner("Fig. 4 retention: M2 threshold drift of an aged cell");
  Table drift({"retention tau", "age", "threshold drift (V)"});
  for (double tau : {10.0, 60.0, 600.0}) {
    for (double age : {1.0, 10.0, 60.0}) {
      drift.AddRow({FormatDuration(tau), FormatDuration(age),
                    FormatSig(ThresholdDriftV(tau, age), 3)});
    }
  }
  bench::PrintTable(drift);
}

// --- timings ------------------------------------------------------------

void BM_IdealCellEvaluate(benchmark::State& state) {
  const core::PcamCell cell(PcamParams::MakeTrapezoid(1.0, 2.0, 3.0, 4.0));
  double v = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(cell.Evaluate(v));
    v = v >= 5.0 ? 0.0 : v + 0.001;
  }
}
BENCHMARK(BM_IdealCellEvaluate);

void BM_PipelineEvaluate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<core::StageConfig> stages;
  for (std::size_t i = 0; i < n; ++i) {
    // append, not `"s" + ...`: g++ 12 -O3 reports a false -Wrestrict.
    stages.push_back({std::string("s").append(std::to_string(i)),
                      PcamParams::MakeTrapezoid(1.0, 2.0, 3.0, 4.0)});
  }
  core::PcamPipeline pipeline(stages, core::HardwarePcamConfig{});
  const std::vector<double> inputs(n, 2.5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pipeline.Evaluate(inputs));
  }
  state.counters["stages"] = static_cast<double>(n);
}
BENCHMARK(BM_PipelineEvaluate)->Arg(1)->Arg(4)->Arg(8)->Arg(16);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
