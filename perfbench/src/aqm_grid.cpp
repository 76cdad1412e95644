// aqm-grid: ExperimentGrid(GridSpec::Default()).Run() — 180 cells of
// policy x RTT x load x ECN on both simulators, single thread. The only
// workload that measures the sim layer and the digital AQMs; the data
// plane does no work here. The grid is run repeatedly with one seed, so
// every repetition must reproduce the first bit for bit.
#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "analognf/sim/experiment_grid.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace sim = analognf::sim;

// Published figures of the default grid (README, EXPERIMENTS.md).
constexpr double kDefaultMarginOpen = 0.385;
constexpr double kDefaultMarginClosed = 0.170;
constexpr double kDefaultAnalogNj = 0.0559;

// Mean nJ/decision of the analog AQM, averaged over both simulators the
// way bench_aqm_shootout reports it.
double AnalogNjPerDecision(const sim::GridReport& report) {
  double sum[2] = {0.0, 0.0};
  int n[2] = {0, 0};
  for (const sim::GridCellResult& cell : report.cells) {
    if (cell.policy != sim::AqmPolicyKind::kAnalog) continue;
    const int s = cell.simulator == sim::GridSimulator::kOpenLoop ? 0 : 1;
    sum[s] += cell.energy_nj_per_decision;
    ++n[s];
  }
  return (sum[0] / n[0] + sum[1] / n[1]) / 2.0;
}

bool SameReport(const sim::GridReport& a, const sim::GridReport& b) {
  if (a.cells.size() != b.cells.size()) return false;
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const sim::GridCellResult& x = a.cells[i];
    const sim::GridCellResult& y = b.cells[i];
    if (x.adherence != y.adherence || x.p99_sojourn_s != y.p99_sojourn_s ||
        x.offered_packets != y.offered_packets ||
        x.delivered_packets != y.delivered_packets ||
        x.dropped_packets != y.dropped_packets ||
        x.marked_packets != y.marked_packets || x.decisions != y.decisions ||
        x.energy_nj_per_decision != y.energy_nj_per_decision) {
      return false;
    }
  }
  return true;
}

bool Rounds(double value, double published, double step) {
  return std::abs(value - published) <= step / 2.0;
}

std::string CellSpan(sim::GridSimulator simulator, sim::AqmPolicyKind policy) {
  return std::string("cell.") + sim::ToString(simulator) + "." +
         sim::ToString(policy);
}

struct GridRun {
  sim::GridReport report;
  bool traced = false;
  double wall_s = 0.0;
  std::vector<double> cell_s;  // per cell, in sweep order
};

GridRun RunGrid(const sim::GridSpec& spec, Tracer* tracer) {
  sim::ExperimentGrid grid(spec);
  GridRun run;
  run.traced = tracer != nullptr;
  std::uint64_t last = NowNs();
  std::uint32_t grid_span = 0;
  if (tracer != nullptr) {
    grid_span = tracer->Intern("grid");
    tracer->Begin(grid_span, last);
  }
  grid.SetCellCallback([&](const sim::GridCellResult& cell) {
    const std::uint64_t now = NowNs();
    run.cell_s.push_back(static_cast<double>(now - last) * 1e-9);
    if (tracer != nullptr) {
      tracer->Leaf(tracer->Intern(CellSpan(cell.simulator, cell.policy)), last,
                   now);
    }
    last = now;
  });
  const std::uint64_t t0 = last;
  run.report = grid.Run();
  const std::uint64_t t1 = NowNs();
  if (tracer != nullptr) tracer->End(t1);
  run.wall_s = static_cast<double>(t1 - t0) * 1e-9;
  return run;
}

}  // namespace

Result RunAqmGrid(const Options& opts, Calibration& calib) {
  Result r;
  sim::GridSpec spec = sim::GridSpec::Default();
  spec.seed = DeriveSeed(spec.seed, opts.seed);
  spec.Validate();

  // Set-up is what the cells pay before they simulate: building each
  // cell's policy (the analog AQM programs its pCAM) and simulator. It is
  // timed as the same grid with every cell cut to 1 ms of simulated time,
  // a few times before each full grid, so that its samples span the same
  // host states as the grids.
  sim::GridSpec setup_spec = spec;
  setup_spec.open_duration_s = setup_spec.closed_duration_s = 1e-3;
  setup_spec.open_warmup_s = setup_spec.closed_warmup_s = 0.0;
  std::vector<double> setup_s;

  Tracer tracer(0);
  std::vector<GridRun> runs;
  std::vector<double> plain_s, traced_s;
  const auto deadline = NowNs() + static_cast<std::uint64_t>(opts.seconds * 1e9);
  // At least two grids, then as many as fit in the window. A traced run
  // alternates untraced and traced grids for the overhead ratio.
  while (runs.size() < 2 ||
         NowNs() + static_cast<std::uint64_t>(runs.back().wall_s * 1e9) <
             deadline) {
    for (int s = 0; s < 4; ++s) {
      const std::uint64_t t0 = NowNs();
      sim::ExperimentGrid grid(setup_spec);
      const std::size_t cells = grid.Run().cells.size();
      setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
      r.Check(cells == setup_spec.CellCount(),
              "aqm-grid: the set-up grid skipped cells");
    }
    const bool traced = opts.trace && runs.size() % 2 == 1;
    runs.push_back(RunGrid(spec, traced ? &tracer : nullptr));
    (traced ? traced_s : plain_s).push_back(runs.back().wall_s);
    calib.Sample();
  }

  const sim::GridReport& first = runs.front().report;
  for (const GridRun& run : runs) {
    r.Check(SameReport(first, run.report),
            "aqm-grid: repeated grids with one seed differ");
  }
  r.Check(first.cells.size() == 180, "aqm-grid: expected 180 cells");
  std::uint64_t offered = 0;
  for (const sim::GridCellResult& cell : first.cells) {
    offered += cell.offered_packets;
    r.Check(cell.delivered_packets + cell.dropped_packets <= cell.offered_packets,
            "aqm-grid: a cell delivered+dropped more than it offered");
  }
  const double margin_open =
      first.AdherenceMargin(sim::GridSimulator::kOpenLoop, "1.4x");
  const double margin_closed =
      first.AdherenceMargin(sim::GridSimulator::kClosedLoop, "1.4x");
  const double analog_nj = AnalogNjPerDecision(first);
  if (opts.seed == kDefaultSeed) {
    r.Check(Rounds(margin_open, kDefaultMarginOpen, 1e-3),
            "aqm-grid: open-loop margin at 1.4x != 0.385");
    r.Check(Rounds(margin_closed, kDefaultMarginClosed, 1e-3),
            "aqm-grid: closed-loop margin at 1.4x != 0.170");
    r.Check(Rounds(analog_nj, kDefaultAnalogNj, 1e-4),
            "aqm-grid: analog nJ/decision != 0.0559");
  }
  r.Note("aqm-grid: grids=" + std::to_string(runs.size()) +
         " adherence_margin_open=" + std::to_string(margin_open) +
         " adherence_margin_closed=" + std::to_string(margin_closed) +
         " analog_nj_per_decision=" + std::to_string(analog_nj));

  r.attempted = first.cells.size();
  // Each cell is fixed work for one seed; the run takes its slowest time
  // over the untraced grids. The host flips between a contended and an
  // uncontended state within most windows, and nearly every window
  // catches each cell in the contended state at least once, so the
  // slowest time reads the same state from run to run where a median
  // reads the share of the window each state took (see README.md).
  std::vector<double> cell_s(first.cells.size());
  for (std::size_t c = 0; c < cell_s.size(); ++c) {
    for (const GridRun& run : runs) {
      if (!run.traced) cell_s[c] = std::max(cell_s[c], run.cell_s[c]);
    }
  }
  double grid_s = 0.0;
  for (const double s : cell_s) grid_s += s;
  // Set-up samples are short enough to fall in one host state each; the
  // 10th percentile reads the uncontended one.
  r.E2e("setup_s", "s", Quantile(setup_s, 0.10));
  r.E2e("mpps", "Mpkt/s", static_cast<double>(offered) / grid_s / 1e6);
  r.E2e("latency_us_p50", "us", Quantile(cell_s, 0.50) * 1e6);
  r.E2e("latency_us_p90", "us", Quantile(cell_s, 0.90) * 1e6);
  r.E2e("nj_per_pkt", "nJ", analog_nj);

  r.Layer("grid.total_s", "s", Median(plain_s));
  r.Layer("grid.adherence_margin_open", "fraction", margin_open);
  r.Layer("grid.adherence_margin_closed", "fraction", margin_closed);
  if (opts.trace) {
    // Seconds per grid by simulator and by policy, from the traced
    // grids' cell spans.
    const double grids = static_cast<double>(traced_s.size());
    std::map<std::string, double> seconds;
    for (const sim::GridSimulator simulator :
         {sim::GridSimulator::kOpenLoop, sim::GridSimulator::kClosedLoop}) {
      for (const sim::AqmPolicyKind policy : spec.policies) {
        const double s = tracer.SelfNs(CellSpan(simulator, policy)) * 1e-9 / grids;
        seconds[std::string("grid.") + sim::ToString(simulator) + "_s"] += s;
        seconds[std::string("grid.") + sim::ToString(policy) + "_s"] += s;
      }
    }
    for (const auto& [name, s] : seconds) r.Layer(name, "s", s);
    r.Layer("trace.wall_ns_per_pkt", "ns", Median(traced_s) * 1e9 / static_cast<double>(offered));
    r.Layer("trace.layer_sum_ns_per_pkt", "ns",
            (tracer.TotalNs("grid") - tracer.SelfNs("grid")) / grids /
                static_cast<double>(offered));
    r.Layer("trace.overhead_fraction", "fraction",
            Median(traced_s) / Median(plain_s) - 1.0);
    r.Layer("trace.spans", "count", static_cast<double>(tracer.spans()));
    WriteTraces(opts.trace_out, {&tracer});
  }
  return r;
}

}  // namespace perfbench
