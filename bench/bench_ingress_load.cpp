// Closed-system ingress load: TrafficSource producers pushing Zipf-mix
// batches over lock-free SPSC rings into run-to-completion SwitchGroup
// port workers (src/traffic/load_driver.hpp).
//
// Measures, at 1/2/4/8 ports, the offered vs achieved packet rate of
// the whole ingress-to-verdict path — synthesis, ring handoff, parse,
// firewall TCAM, LPM, AQM, traffic manager — plus the ring-drop
// fraction and the p50/p99 enqueue-to-retire batch sojourn. The flow
// population is 2^20 Zipf(1.0) flows, IMIX sizes, so the tables see
// realistic skew rather than a handful of synthetic flows.
//
// Also checks the conservation invariant (offered == achieved +
// dropped, exactly) on every row; a violation marks the JSON and fails
// the run with a non-zero exit once the JSON is written.
//
// Writes BENCH_ingress.json (machine-readable, consumed by CI; the
// ports=1 achieved rate is budget-gated in scripts/bench_budget.json).
#include "bench_util.hpp"

#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "analognf/common/simd.hpp"
#include "analognf/traffic/load_driver.hpp"

namespace {

using namespace analognf;

traffic::LoadDriverConfig DriverConfig(std::size_t ports) {
  traffic::LoadDriverConfig c;
  c.ports = ports;
  c.switch_config.port_count = 4;
  c.switch_config.port_rate_bps = 100.0e9;  // admission-bound, not egress
  c.switch_config.service_classes = 2;
  c.workload.population.flows = 1u << 20;
  c.workload.zipf_s = 1.0;
  c.workload.arrivals.rate_pps = 1.0e6;
  c.workload.sizes = traffic::WorkloadConfig::Sizes::kImix;
  c.packets_per_port = 100'000;
  c.batch_size = 64;
  c.ring_capacity = 256;
  c.overflow = traffic::LoadDriverConfig::Overflow::kDropBatch;
  return c;
}

void Report() {
  bench::Banner("ingress load: offered vs achieved over SPSC rings");
  bench::Line("Zipf(1.0) over 2^20 flows, IMIX sizes, run-to-completion "
              "port workers");
  bench::Line("hardware_concurrency = " +
              std::to_string(std::thread::hardware_concurrency()));
}

// --- google-benchmark timings -------------------------------------------

void BM_IngressLoad(benchmark::State& state) {
  const auto ports = static_cast<std::size_t>(state.range(0));
  auto config = DriverConfig(ports);
  config.packets_per_port = 20'000;  // keep iterations short
  for (auto _ : state) {
    traffic::LoadDriver driver(config);
    const traffic::LoadReport report = driver.Run();
    benchmark::DoNotOptimize(report.achieved_packets);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(ports * config.packets_per_port));
}
BENCHMARK(BM_IngressLoad)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);

// --- machine-readable measurements (BENCH_ingress.json) -----------------

void EmitIngressJson() {
  const std::size_t port_counts[] = {1, 2, 4, 8};
  bench::JsonArray rows{"ports", {}};
  bool all_conserved = true;

  for (const std::size_t ports : port_counts) {
    traffic::LoadDriver driver(DriverConfig(ports));
    const traffic::LoadReport r = driver.Run();
    const bool conserved =
        r.offered_packets == r.achieved_packets + r.dropped_packets;
    all_conserved = all_conserved && conserved;

    const double offered_mpps =
        static_cast<double>(r.offered_packets) / r.wall_s / 1e6;
    const double per_port_mpps =
        r.achieved_mpps / static_cast<double>(ports);
    const double drop_fraction =
        r.offered_packets > 0
            ? static_cast<double>(r.dropped_packets) /
                  static_cast<double>(r.offered_packets)
            : 0.0;
    // Worst-case port sojourn quantiles across the group.
    double p50 = 0.0, p99 = 0.0;
    for (const traffic::PortLoadStats& ps : r.ports) {
      if (ps.p50_batch_ns > p50) p50 = ps.p50_batch_ns;
      if (ps.p99_batch_ns > p99) p99 = ps.p99_batch_ns;
    }

    rows.items.push_back(
        {bench::JsonInt("ports", ports),
         bench::JsonNum("offered_mpps", offered_mpps),
         bench::JsonNum("achieved_mpps", r.achieved_mpps),
         bench::JsonNum("achieved_mpps_per_port", per_port_mpps),
         bench::JsonNum("ring_drop_fraction", drop_fraction),
         bench::JsonNum("p50_batch_ns", p50),
         bench::JsonNum("p99_batch_ns", p99),
         bench::JsonNum("energy_j", r.energy_j),
         bench::JsonInt("conservation_exact", conserved ? 1 : 0)});
    bench::Line("ports=" + std::to_string(ports) + " achieved_mpps=" +
                std::to_string(r.achieved_mpps) + " drop_fraction=" +
                std::to_string(drop_fraction) +
                (conserved ? "" : " CONSERVATION VIOLATED"));
  }

  bench::WriteBenchJson(
      "BENCH_ingress.json",
      {bench::JsonStr("bench", "ingress"),
       bench::JsonStr("isa", simd::IsaName()),
       bench::JsonInt("hardware_concurrency",
                      std::thread::hardware_concurrency()),
       bench::JsonInt("flows", 1u << 20),
       bench::JsonInt("batch_size", 64),
       bench::JsonInt("packets_per_port", 100'000),
       bench::JsonInt("all_conservation_exact", all_conserved ? 1 : 0)},
      {rows}, "4 port counts");
  // A correctness break fails the run once the JSON is on disk.
  if (!all_conserved) {
    std::fprintf(stderr,
                 "bench_ingress_load: offered != achieved + dropped\n");
    std::exit(EXIT_FAILURE);
  }
}

void ReportAndEmitJson() {
  Report();
  EmitIngressJson();
}

}  // namespace

ANALOGNF_BENCH_MAIN(ReportAndEmitJson)
