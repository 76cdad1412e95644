// Ablation C: the pCAM analog AQM against the digital AQMs the paper
// cites (CoDel, RED, PIE) and plain tail drop, on the Fig. 8 workload.
//
// This is context the paper motivates but does not plot; the shape to
// check is that the analog AQM achieves CoDel/PIE-class delay control
// while its per-decision energy sits orders of magnitude below a digital
// match-action implementation of the same pipeline.
#include "bench_util.hpp"

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/aqm/codel.hpp"
#include "analognf/aqm/pie.hpp"
#include "analognf/aqm/red.hpp"
#include "analognf/aqm/wred.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/common/units.hpp"
#include "analognf/sim/queue_sim.hpp"

namespace {

using namespace analognf;

constexpr double kLinkBps = 10.0e6;

sim::SimReport RunPolicy(aqm::AqmPolicy& policy, std::uint64_t seed,
                         std::uint64_t max_packets = 0) {
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = 1800.0;  // 144% offered load
  net::MetaSource source(mc, seed);
  sim::QueueSimConfig sc;
  sc.duration_s = 12.0;
  sc.warmup_s = 3.0;
  sc.link_rate_bps = kLinkBps;
  sc.queue.max_packets = max_packets;
  sim::QueueSimulator sim(sc, source, policy);
  return sim.Run();
}

void AddRow(Table& table, const std::string& name,
            const sim::SimReport& report, const std::string& energy) {
  const auto delays = report.delay.ValuesFrom(report.warmup_s);
  table.AddRow({name, FormatDuration(report.delay_stats.mean()),
                FormatDuration(Percentile(delays, 0.99)),
                FormatSig(report.DropRate() * 100.0, 3) + " %",
                FormatSig(report.ThroughputBps() / 1e6, 3) + " Mb/s",
                energy});
}

void Report() {
  bench::Banner("Ablation C: pCAM AQM vs CODEL / RED / PIE / taildrop");
  Table table({"policy", "mean delay", "p99 delay", "drop rate",
               "goodput", "decision energy"});

  {
    aqm::TailDropOnly policy;  // bounded queue, or delay diverges
    AddRow(table, "taildrop(100p)", RunPolicy(policy, 5, 100), "n/a");
  }
  {
    aqm::Red policy(aqm::RedConfig{}, 6);
    AddRow(table, "RED", RunPolicy(policy, 5), "digital MAT");
  }
  {
    aqm::Codel policy;
    AddRow(table, "CoDel", RunPolicy(policy, 5), "digital MAT");
  }
  {
    aqm::PieConfig pc;
    pc.drain_rate_bps = kLinkBps;
    aqm::Pie policy(pc, 7);
    AddRow(table, "PIE", RunPolicy(policy, 5), "digital MAT");
  }
  {
    // WRED: the digital analogue of the analog AQM's priority relief.
    aqm::RedConfig high;
    high.min_threshold_pkts = 10.0;
    high.max_threshold_pkts = 30.0;
    high.max_p = 0.05;
    aqm::RedConfig low;
    aqm::Wred policy(high, low, 8);
    AddRow(table, "WRED", RunPolicy(policy, 5), "digital MAT");
  }
  {
    aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
    const sim::SimReport report = RunPolicy(policy, 5);
    const double per_decision =
        policy.ConsumedEnergyJ() /
        static_cast<double>(
            policy.ledger().Of(energy::category::kPcamSearch).operations);
    AddRow(table, "pCAM analog AQM", report,
           FormatEnergy(per_decision) + "/pkt");
  }
  bench::PrintTable(table);
  bench::Line("shape: analog AQM holds delay near its 20 ms program like "
              "the digital AQMs hold theirs, with in-storage analog "
              "search energy per decision");
  bench::Line("note: CoDel's sqrt control law converges very slowly "
              "against sustained *unresponsive* overload (RFC 8289 Sec. "
              "3); this workload has no end-to-end congestion response, "
              "which RED/PIE/pCAM tolerate by construction");
}

// --- timings ------------------------------------------------------------

template <typename Policy>
void RunDecisionBench(benchmark::State& state, Policy& policy) {
  aqm::AqmContext ctx;
  ctx.sojourn_s = 0.02;
  ctx.queue_packets = 25;
  ctx.queue_bytes = 25000;
  ctx.packet.size_bytes = 1000;
  for (auto _ : state) {
    ctx.now_s += 0.0005;
    benchmark::DoNotOptimize(policy.ShouldDropOnEnqueue(ctx));
    benchmark::DoNotOptimize(policy.ShouldDropOnDequeue(ctx));
  }
}

void BM_DecisionRed(benchmark::State& state) {
  aqm::Red policy(aqm::RedConfig{}, 1);
  RunDecisionBench(state, policy);
}
BENCHMARK(BM_DecisionRed);

void BM_DecisionCodel(benchmark::State& state) {
  aqm::Codel policy;
  RunDecisionBench(state, policy);
}
BENCHMARK(BM_DecisionCodel);

void BM_DecisionPie(benchmark::State& state) {
  aqm::Pie policy(aqm::PieConfig{}, 2);
  RunDecisionBench(state, policy);
}
BENCHMARK(BM_DecisionPie);

void BM_DecisionAnalog(benchmark::State& state) {
  aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
  RunDecisionBench(state, policy);
}
BENCHMARK(BM_DecisionAnalog);

}  // namespace

ANALOGNF_BENCH_MAIN(Report)
