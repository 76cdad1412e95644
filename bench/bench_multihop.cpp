// Extension experiment: end-to-end behaviour across a line of cognitive
// switches, each running its own pCAM AQM (the deployment view of the
// Fig. 5 architecture).
//
// Shape to check: per-hop AQMs compose — the end-to-end delay of an
// overloaded line stays near (bottleneck AQM target + propagation),
// while without AQM the first hop's standing queue dominates everything.
#include "bench_util.hpp"

#include "analognf/arch/topology.hpp"
#include "analognf/common/units.hpp"
#include "analognf/net/generator.hpp"

namespace {

using namespace analognf;

arch::TopologyConfig LineConfig(std::size_t hops, bool aqm) {
  arch::TopologyConfig c;
  c.hops = hops;
  c.propagation_delay_s = 0.002;
  c.duration_s = 8.0;
  c.warmup_s = 2.0;
  c.hop.port_count = 1;
  c.hop.port_rate_bps = 10.0e6;
  c.hop.enable_aqm = aqm;
  return c;
}

arch::TopologyReport RunLine(std::size_t hops, bool aqm, double rate_pps) {
  arch::LineTopology line(LineConfig(hops, aqm));
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = rate_pps;
  net::MetaSource source(mc, 2026);
  return line.Run(source);
}

void Report() {
  bench::Banner("Multi-hop line: per-hop pCAM AQMs compose end to end");
  Table table({"hops", "AQM", "offered pps", "e2e mean", "e2e max",
               "hop-0 AQM drops", "delivered"});
  for (std::size_t hops : {2u, 4u}) {
    for (bool aqm : {false, true}) {
      const arch::TopologyReport r = RunLine(hops, aqm, 1800.0);
      table.AddRow({std::to_string(hops), aqm ? "pCAM" : "none", "1800",
                    FormatDuration(r.end_to_end.mean()),
                    FormatDuration(r.end_to_end.max()),
                    std::to_string(aqm ? r.hop_stats[0].aqm_drops : 0),
                    std::to_string(r.delivered)});
    }
  }
  bench::PrintTable(table);
  bench::Line("shape: without AQM the congested first hop dominates with "
              "an unbounded standing queue; with per-hop pCAM AQMs the "
              "end-to-end delay is one AQM bound plus propagation, "
              "independent of line length");
}

// --- timings ------------------------------------------------------------

void BM_TwoHopSecond(benchmark::State& state) {
  for (auto _ : state) {
    arch::TopologyConfig c = LineConfig(2, true);
    c.duration_s = 1.0;
    c.warmup_s = 0.2;
    arch::LineTopology line(c);
    net::MetaSourceConfig mc;
    mc.arrivals.rate_pps = 1500.0;
    net::MetaSource source(mc, 7);
    benchmark::DoNotOptimize(line.Run(source));
  }
}
BENCHMARK(BM_TwoHopSecond)->Unit(benchmark::kMillisecond);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
