// AQM shoot-out: the full scenario grid of EXPERIMENTS.md.
//
// Runs the declarative experiment grid — {analog pCAM AQM, PIE, PI2,
// CoDel, RED} x {10/40/100 ms base RTT} x {0.9x open-loop load + 4
// closed-loop sources, 1.4x + 16 sources} x {0 / 0.5 / 1.0 ECN} — on
// both the open-loop Poisson simulator and the closed-loop AIMD
// simulator, then renders a markdown adherence summary and emits every
// cell to BENCH_shootout.json for the CI gate.
//
// The shape to check: the analog AQM's delay-target adherence is at
// least digital-class at every load (the "gates" rows track the margin
// against the best digital baseline), while its per-decision energy
// sits orders of magnitude below the digital controllers' data-movement
// cost.
//
// Then one named GridSpec collection per single-axis question, each a
// table of its cells: `baselines` (every policy on the overloaded
// 40 ms link), `derivatives` (Fig. 6 feature orders on bursty MMPP
// arrivals), `combiners` (the Fig. 4b series rule against fuzzy
// alternatives), `noise` (RQ2: channel noise and aCAM device
// imperfections), `retention` (relaxing devices, aged before the run)
// and `learned` (the Sec. 8(2) self-learning AQM). Only the default
// grid feeds BENCH_shootout.json and its gates.
#include "bench_util.hpp"

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analognf/common/simd.hpp"
#include "analognf/common/units.hpp"
#include "analognf/sim/experiment_grid.hpp"

namespace {

using namespace analognf;

std::string Fmt(double value, int digits = 3) {
  return FormatSig(value, digits);
}

std::string MarkdownRow(const std::vector<std::string>& cells) {
  std::string row = "|";
  for (const std::string& c : cells) row += " " + c + " |";
  return row;
}

// Mean nJ/decision of a policy's cells on one simulator.
double MeanEnergy(const sim::GridReport& report, sim::AqmPolicyKind kind,
                  sim::GridSimulator simulator) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const sim::GridCellResult& cell : report.cells) {
    if (cell.policy == kind && cell.simulator == simulator) {
      sum += cell.energy_nj_per_decision;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// ------------------------------------------------------ collections

struct Collection {
  std::string name;  // "<name>: <the question its table answers>"
  sim::GridSpec spec;
};

// The collections' shared testbed: the analog AQM on a 40 ms link at
// 1.44x load (8 closed-loop sources), no ECN, with the default grid's
// durations, band and buffer sizing.
sim::GridSpec Testbed() {
  sim::GridSpec spec = sim::GridSpec::Default();
  spec.policies = {sim::AqmPolicyKind::kAnalog};
  spec.base_rtts_s = {0.040};
  spec.loads = {{"1.44x", 1.44, 8}};
  spec.ecn_fractions = {0.0};
  return spec;
}

std::vector<Collection> Collections() {
  using Config = aqm::AnalogAqmConfig;
  using Kind = sim::AqmPolicyKind;
  sim::GridSpec baselines = Testbed();
  baselines.policies = {Kind::kAnalog, Kind::kPie,  Kind::kPi2,
                        Kind::kCodel,  Kind::kRed,  Kind::kWred,
                        Kind::kTailDrop};
  baselines.ecn_fractions = {0.0, 1.0};

  sim::GridSpec derivatives = Testbed();
  sim::GridLoad mmpp{"mmpp", 0.72, 8};  // 900 pps calm, 4000 pps bursts
  mmpp.arrivals.process = net::ArrivalConfig::Process::kMmpp;
  mmpp.arrivals.burst_factor = 4000.0 / 900.0;
  mmpp.arrivals.mean_calm_dwell_s = 0.4;
  mmpp.arrivals.mean_burst_dwell_s = 0.08;
  derivatives.loads = {mmpp};
  for (std::size_t orders = 0; orders <= 3; ++orders) {
    derivatives.variants.push_back(
        {"orders=" + std::to_string(orders),
         [orders](Config& c) { c.derivative_orders = orders; }});
  }

  sim::GridSpec combiners = Testbed();
  for (core::CombineMode mode :
       {core::CombineMode::kProduct, core::CombineMode::kMin,
        core::CombineMode::kArithmeticMean,
        core::CombineMode::kGeometricMean}) {
    combiners.variants.push_back(
        {ToString(mode), [mode](Config& c) { c.combine = mode; }});
  }

  sim::GridSpec noise = Testbed();
  noise.variants = {
      {"ideal", {}},
      {"awgn 0.05 V",
       [](Config& c) { c.hardware.channel.awgn_sigma_v = 0.05; }},
      {"awgn 0.1 V", [](Config& c) { c.hardware.channel.awgn_sigma_v = 0.1; }},
      {"awgn 0.2 V", [](Config& c) { c.hardware.channel.awgn_sigma_v = 0.2; }},
      {"line gain 0.9", [](Config& c) { c.hardware.channel.line_gain = 0.9; }},
      {"xtalk 0.1 V",
       [](Config& c) { c.hardware.channel.interference_peak_v = 0.1; }},
      {"dac inl 1 lsb", [](Config& c) { c.dac_inl_sigma_lsb = 1.0; }},
      {"dac inl 4 lsb", [](Config& c) { c.dac_inl_sigma_lsb = 4.0; }},
      {"program noise 0.2",
       [](Config& c) { c.hardware.device.program_noise_sigma = 0.2; }},
      {"device variation",
       [](Config& c) { c.hardware.apply_device_variation = true; }}};

  sim::GridSpec retention = Testbed();
  for (double tau : {5.0, 20.0}) {
    for (double age : {0.0, 1.0, 10.0}) {
      retention.variants.push_back(
          {"tau " + Fmt(tau) + " s, age " + Fmt(age) + " s",
           [tau](Config& c) {
             c.hardware.device.retention_time_constant_s = tau;
           },
           age});
    }
  }

  sim::GridSpec learned = Testbed();
  learned.policies = {Kind::kAnalog, Kind::kLearned};
  return {
      {"baselines: every policy, drop-only and all-ECN", baselines},
      {"derivatives: Fig. 6 derivative orders 0..3 on MMPP arrivals",
       derivatives},
      {"combiners: the Fig. 4b product rule vs fuzzy combiners", combiners},
      {"noise: search-line noise and aCAM device imperfections (RQ2)",
       noise},
      {"retention: relaxing devices aged before the run (age 0 = just "
       "refreshed)",
       retention},
      {"learned: programmed pCAM AQM vs self-learning crossbar AQM",
       learned}};
}

void PrintCollection(const Collection& collection) {
  bench::Banner("AQM collection " + collection.name);
  Table table({"policy", "variant", "simulator", "rtt", "load", "ecn",
               "adherence", "mean", "p99", "drop", "mark", "util",
               "nJ/decision"});
  for (const sim::GridCellResult& cell :
       sim::ExperimentGrid(collection.spec).Run().cells) {
    table.AddRow({sim::ToString(cell.policy),
                  cell.variant.empty() ? "-" : cell.variant,
                  sim::ToString(cell.simulator),
                  FormatDuration(cell.base_rtt_s), cell.load.label,
                  Fmt(cell.ecn_fraction), Fmt(cell.adherence),
                  FormatDuration(cell.mean_sojourn_s),
                  FormatDuration(cell.p99_sojourn_s), Fmt(cell.drop_rate),
                  Fmt(cell.mark_rate), Fmt(cell.utilization),
                  Fmt(cell.energy_nj_per_decision)});
  }
  bench::PrintTable(table);
}

void Report() {
  bench::Banner(
      "AQM shoot-out grid: policy x RTT x load x ECN, both simulators");

  sim::GridSpec spec = sim::GridSpec::Default();
  sim::ExperimentGrid grid(spec);
  const sim::GridReport report = grid.Run();
  bench::Line(std::to_string(report.cells.size()) + " cells (" +
              std::to_string(spec.policies.size()) + " policies x " +
              std::to_string(spec.base_rtts_s.size()) + " RTTs x " +
              std::to_string(spec.loads.size()) + " loads x " +
              std::to_string(spec.ecn_fractions.size()) +
              " ECN fractions x 2 simulators)");
  const double band_lo_ms =
      (sim::GridSpec::kTargetDelayS - sim::GridSpec::kMaxDeviationS) * 1e3;
  const double band_hi_ms =
      (sim::GridSpec::kTargetDelayS + sim::GridSpec::kMaxDeviationS) * 1e3;
  bench::Line("adherence = fraction of post-warmup deliveries inside " +
              Fmt(band_lo_ms) + ".." + Fmt(band_hi_ms) +
              " ms; cells average over the RTT and ECN axes");

  // Markdown adherence summary: one row per policy, one column per
  // (simulator, load) pair, plus the mean per-decision energy.
  std::vector<std::string> header = {"policy"};
  for (const char* s : {"open", "closed"}) {
    for (const sim::GridLoad& load : spec.loads) {
      header.push_back(std::string(s) + " " + load.label);
    }
  }
  header.push_back("nJ/decision");
  bench::Line(MarkdownRow(header));
  bench::Line(MarkdownRow(
      std::vector<std::string>(header.size(), "---")));
  for (sim::AqmPolicyKind kind : spec.policies) {
    std::vector<std::string> row = {sim::ToString(kind)};
    for (sim::GridSimulator simulator :
         {sim::GridSimulator::kOpenLoop,
          sim::GridSimulator::kClosedLoop}) {
      for (const sim::GridLoad& load : spec.loads) {
        row.push_back(
            Fmt(report.MeanAdherence(kind, simulator, load.label)));
      }
    }
    const double nj =
        (MeanEnergy(report, kind, sim::GridSimulator::kOpenLoop) +
         MeanEnergy(report, kind, sim::GridSimulator::kClosedLoop)) /
        2.0;
    row.push_back(Fmt(nj));
    bench::Line(MarkdownRow(row));
  }

  const double open_margin =
      report.MinAdherenceMargin(sim::GridSimulator::kOpenLoop);
  const double closed_margin =
      report.MinAdherenceMargin(sim::GridSimulator::kClosedLoop);
  bench::Line("worst analog-vs-best-digital adherence margin: open " +
              Fmt(open_margin) + ", closed " + Fmt(closed_margin) +
              " (positive = analog holds its band at least as well)");

  // ------------------------------------------------- BENCH_shootout.json
  bench::JsonArray cells{"cells", {}};
  cells.items.reserve(report.cells.size());
  for (const sim::GridCellResult& cell : report.cells) {
    cells.items.push_back(
        {bench::JsonStr("policy", sim::ToString(cell.policy)),
         bench::JsonStr("simulator", sim::ToString(cell.simulator)),
         bench::JsonNum("rtt_ms", cell.base_rtt_s * 1e3),
         bench::JsonStr("load", cell.load.label),
         bench::JsonNum("offered_fraction", cell.load.offered_fraction),
         bench::JsonInt("sources", cell.load.sources),
         bench::JsonNum("ecn_fraction", cell.ecn_fraction),
         bench::JsonNum("adherence", cell.adherence),
         bench::JsonNum("mean_sojourn_ms", cell.mean_sojourn_s * 1e3),
         bench::JsonNum("p50_sojourn_ms", cell.p50_sojourn_s * 1e3),
         bench::JsonNum("p99_sojourn_ms", cell.p99_sojourn_s * 1e3),
         bench::JsonNum("drop_rate", cell.drop_rate),
         bench::JsonNum("mark_rate", cell.mark_rate),
         bench::JsonNum("fairness", cell.fairness),
         bench::JsonNum("utilization", cell.utilization),
         bench::JsonInt("offered", cell.offered_packets),
         bench::JsonInt("delivered", cell.delivered_packets),
         bench::JsonInt("dropped", cell.dropped_packets),
         bench::JsonInt("marked", cell.marked_packets),
         bench::JsonInt("decisions", cell.decisions),
         bench::JsonNum("nj_per_decision",
                        cell.energy_nj_per_decision)});
  }

  // Derived gate rows for scripts/check_bench.py (direction "min" on
  // margin: the analog AQM must hold its delay band at least as well as
  // the best digital baseline at matched simulator and load; warn-only
  // off calibrated runners, like every bench gate). The budget gates the
  // congested load only — below capacity the queue is mostly empty, so
  // a two-sided band scores every policy near zero and the margin is
  // noise (the sub-capacity rows stay informational).
  bench::JsonArray gates{"gates", {}};
  for (sim::GridSimulator simulator :
       {sim::GridSimulator::kOpenLoop, sim::GridSimulator::kClosedLoop}) {
    for (const sim::GridLoad& load : spec.loads) {
      gates.items.push_back(
          {bench::JsonStr("gate", "adherence_margin"),
           bench::JsonStr("simulator", sim::ToString(simulator)),
           bench::JsonStr("load", load.label),
           bench::JsonNum("margin",
                          report.AdherenceMargin(simulator, load.label))});
    }
  }
  double analog_nj = 0.0;
  double digital_nj = 0.0;
  bool digital_any = false;
  for (sim::AqmPolicyKind kind : spec.policies) {
    const double nj =
        (MeanEnergy(report, kind, sim::GridSimulator::kOpenLoop) +
         MeanEnergy(report, kind, sim::GridSimulator::kClosedLoop)) /
        2.0;
    if (kind == sim::AqmPolicyKind::kAnalog) {
      analog_nj = nj;
    } else if (sim::IsDigital(kind) && nj > 0.0) {
      digital_nj = digital_any ? std::min(digital_nj, nj) : nj;
      digital_any = true;
    }
  }
  gates.items.push_back(
      {bench::JsonStr("gate", "energy"),
       bench::JsonNum("analog_nj_per_decision", analog_nj),
       bench::JsonNum("digital_min_nj_per_decision", digital_nj)});

  std::ostringstream summary;
  summary << report.cells.size() << " cells, margins open="
          << open_margin << " closed=" << closed_margin;
  bench::WriteBenchJson(
      "BENCH_shootout.json",
      {bench::JsonStr("bench", "aqm_shootout"),
       bench::JsonStr("isa", simd::IsaName()),
       bench::JsonInt("policies", spec.policies.size()),
       bench::JsonInt("rtts", spec.base_rtts_s.size()),
       bench::JsonInt("loads", spec.loads.size()),
       bench::JsonInt("ecn_fractions", spec.ecn_fractions.size()),
       bench::JsonNum("target_delay_ms", sim::GridSpec::kTargetDelayS * 1e3),
       bench::JsonNum("max_deviation_ms",
                      sim::GridSpec::kMaxDeviationS * 1e3),
       bench::JsonNum("link_rate_mbps", sim::GridSpec::kLinkRateBps / 1e6)},
      {cells, gates}, summary.str());

  for (const Collection& collection : Collections()) {
    PrintCollection(collection);
  }
}

// --- timings ------------------------------------------------------------
// One representative cell per simulator and policy, small enough for CI:
// the timings watch the grid runner's own overhead, not the full sweep.

sim::GridSpec TimingSpec(sim::AqmPolicyKind kind) {
  sim::GridSpec spec;
  spec.policies = {kind};
  spec.base_rtts_s = {0.040};
  spec.loads = {{"0.9x", 0.9, 4}};
  spec.ecn_fractions = {0.5};
  spec.open_duration_s = 2.0;
  spec.open_warmup_s = 0.5;
  spec.closed_duration_s = 2.0;
  spec.closed_warmup_s = 0.5;
  return spec;
}

const bool kGridCellTimings = [] {
  for (sim::AqmPolicyKind kind :
       {sim::AqmPolicyKind::kAnalog, sim::AqmPolicyKind::kPie,
        sim::AqmPolicyKind::kPi2, sim::AqmPolicyKind::kCodel,
        sim::AqmPolicyKind::kRed, sim::AqmPolicyKind::kWred,
        sim::AqmPolicyKind::kTailDrop, sim::AqmPolicyKind::kLearned}) {
    benchmark::RegisterBenchmark(
        std::string("BM_GridCell/").append(sim::ToString(kind)).c_str(),
        [kind](benchmark::State& state) {
          for (auto _ : state) {
            sim::ExperimentGrid grid(TimingSpec(kind));
            benchmark::DoNotOptimize(grid.Run());
          }
        });
  }
  return true;
}();

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
