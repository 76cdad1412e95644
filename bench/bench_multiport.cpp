// Multi-port scaling of the concurrent runtime (port_runtime.hpp):
// aggregate packets/sec of a SwitchGroup at 1/2/4/8 ports over one set
// of epoch-published shared tables, against the sequential single-switch
// baseline processing the same total stream.
//
// Two claims measured:
//   * correctness — every port's stats are bit-identical to a solo
//     CognitiveSwitch fed the same per-port stream (the snapshot path
//     changes concurrency, not results);
//   * scaling — aggregate throughput grows with ports when cores are
//     available. ns/packet columns depend on the host; the JSON records
//     hardware_concurrency so a single-core container's flat curve is
//     readable as such.
//
// Writes BENCH_multiport.json (machine-readable, consumed by CI), then
// exits non-zero if any port count's verdicts differ.
#include "bench_util.hpp"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analognf/arch/port_runtime.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/net/packet.hpp"
#include "analognf/net/parser.hpp"

namespace {

using namespace analognf;

arch::SwitchConfig PortConfig() {
  arch::SwitchConfig c;
  c.port_count = 4;
  c.port_rate_bps = 100.0e9;  // fast egress: admission, not drainage
  c.service_classes = 2;
  c.enable_aqm = true;
  return c;
}

net::Packet MakeFlowPacket(std::uint32_t flow, std::size_t payload,
                           std::uint8_t dscp) {
  net::EthernetHeader eth;
  eth.dst = {2, 0, 0, 0, 0, 1};
  eth.src = {2, 0, 0, 0, 0, 2};
  net::Ipv4Header ip;
  ip.src_ip = 0x01010000u + flow;
  ip.dst_ip = 0x0a000000u + (flow & 0xff);  // 10.0.0.x
  ip.protocol = net::kIpProtoUdp;
  ip.dscp = dscp;
  net::UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(1024 + (flow & 0x3ff));
  udp.dst_port = 53;
  return net::PacketBuilder()
      .Ethernet(eth)
      .Ipv4(ip)
      .Udp(udp)
      .Payload(payload)
      .Build();
}

std::vector<net::Packet> MakeTraffic(std::size_t count, std::uint64_t seed) {
  RandomStream rng(seed);
  std::vector<net::Packet> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const auto flow = static_cast<std::uint32_t>(rng.NextIndex(256));
    const std::size_t payload = 40 + rng.NextIndex(1200);
    const auto dscp = static_cast<std::uint8_t>(rng.NextIndex(8) << 3);
    packets.push_back(MakeFlowPacket(flow, payload, dscp));
  }
  return packets;
}

void InstallTables(auto& sw) {
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 24, 0);
  sw.AddRoute(net::ParseIpv4("10.0.0.8"), 29, 1);
  sw.AddFirewallRule(arch::FirewallPattern{}, true, 1);
}

constexpr std::size_t kBatchSize = 128;
constexpr std::size_t kBatchesPerPort = 64;

// Per-port ingress: the same streams for the group run and the solo
// baselines, so results are comparable bit-for-bit.
std::vector<std::vector<net::Packet>> PortStreams(std::size_t ports) {
  std::vector<std::vector<net::Packet>> streams;
  streams.reserve(ports);
  for (std::size_t p = 0; p < ports; ++p) {
    streams.push_back(
        MakeTraffic(kBatchSize * kBatchesPerPort, 0x517A + p));
  }
  return streams;
}

struct RunResult {
  double seconds = 0.0;
  arch::SwitchStats stats;
};

RunResult RunGroup(std::size_t ports,
                   const std::vector<std::vector<net::Packet>>& streams) {
  arch::SwitchGroup group(ports, PortConfig());
  InstallTables(group);
  group.Commit();
  // Warm-up batch per port: steady-state snapshots and allocations.
  for (std::size_t p = 0; p < ports; ++p) {
    group.Submit(p, {streams[p].front()}, 0.0);
  }
  group.WaitIdle();

  const auto start = std::chrono::steady_clock::now();
  double now_s = 1.0e-3;
  for (std::size_t b = 0; b < kBatchesPerPort; ++b) {
    for (std::size_t p = 0; p < ports; ++p) {
      std::vector<net::Packet> chunk(
          streams[p].begin() + static_cast<long>(b * kBatchSize),
          streams[p].begin() + static_cast<long>((b + 1) * kBatchSize));
      group.Submit(p, std::move(chunk), now_s);
    }
    now_s += 1.0e-5;
  }
  group.WaitIdle();
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  r.stats = group.AggregateStats();
  // Subtract the warm-up packets so both runs count the timed stream.
  r.stats.injected -= ports;
  return r;
}

RunResult RunSequentialBaseline(
    std::size_t ports,
    const std::vector<std::vector<net::Packet>>& streams,
    arch::SwitchStats* per_port_stats) {
  std::vector<std::unique_ptr<arch::CognitiveSwitch>> solos;
  for (std::size_t p = 0; p < ports; ++p) {
    solos.push_back(std::make_unique<arch::CognitiveSwitch>(PortConfig()));
    InstallTables(*solos[p]);
    solos[p]->InjectBatch(
        std::span<const net::Packet>(streams[p]).first(1), 0.0);
  }
  const auto start = std::chrono::steady_clock::now();
  double now_s = 1.0e-3;
  for (std::size_t b = 0; b < kBatchesPerPort; ++b) {
    for (std::size_t p = 0; p < ports; ++p) {
      solos[p]->InjectBatch(
          std::span<const net::Packet>(streams[p])
              .subspan(b * kBatchSize, kBatchSize),
          now_s);
    }
    now_s += 1.0e-5;
  }
  const auto stop = std::chrono::steady_clock::now();

  RunResult r;
  r.seconds = std::chrono::duration<double>(stop - start).count();
  for (std::size_t p = 0; p < ports; ++p) {
    const arch::SwitchStats& s = solos[p]->stats();
    if (per_port_stats != nullptr) per_port_stats[p] = s;
    r.stats.injected += s.injected;
    r.stats.forwarded += s.forwarded;
    r.stats.parse_errors += s.parse_errors;
    r.stats.firewall_denies += s.firewall_denies;
    r.stats.no_route += s.no_route;
    r.stats.aqm_drops += s.aqm_drops;
    r.stats.queue_full += s.queue_full;
  }
  r.stats.injected -= ports;  // warm-up packets
  return r;
}

bool SameVerdicts(const arch::SwitchStats& a, const arch::SwitchStats& b) {
  return a.injected == b.injected && a.forwarded == b.forwarded &&
         a.parse_errors == b.parse_errors &&
         a.firewall_denies == b.firewall_denies &&
         a.no_route == b.no_route && a.aqm_drops == b.aqm_drops &&
         a.queue_full == b.queue_full;
}

void Report() {
  bench::Banner("multi-port runtime: aggregate throughput vs ports");
  bench::Line("SwitchGroup over epoch-published shared tables; "
              "bit-identical verdicts to the sequential baseline");
  bench::Line("hardware_concurrency = " +
              std::to_string(std::thread::hardware_concurrency()));
}

// --- google-benchmark timings -------------------------------------------

void BM_GroupSubmitDrain(benchmark::State& state) {
  const auto ports = static_cast<std::size_t>(state.range(0));
  const auto streams = PortStreams(ports);
  arch::SwitchGroup group(ports, PortConfig());
  InstallTables(group);
  group.Commit();
  double now_s = 0.0;
  for (auto _ : state) {
    for (std::size_t p = 0; p < ports; ++p) {
      std::vector<net::Packet> chunk(streams[p].begin(),
                                     streams[p].begin() + kBatchSize);
      group.Submit(p, std::move(chunk), now_s);
    }
    group.WaitIdle();
    now_s += 1.0e-4;
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(ports * kBatchSize));
}
BENCHMARK(BM_GroupSubmitDrain)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMicrosecond);

// --- machine-readable measurements (BENCH_multiport.json) ---------------

void EmitMultiportJson() {
  const std::size_t port_counts[] = {1, 2, 4, 8};
  bench::JsonArray rows{"ports", {}};
  double pps_at_1 = 0.0;
  bool all_identical = true;

  for (const std::size_t ports : port_counts) {
    const auto streams = PortStreams(ports);
    const RunResult group = RunGroup(ports, streams);
    std::vector<arch::SwitchStats> solo_stats(ports);
    const RunResult baseline =
        RunSequentialBaseline(ports, streams, solo_stats.data());
    const bool identical = SameVerdicts(group.stats, baseline.stats);
    all_identical = all_identical && identical;

    const double total_packets =
        static_cast<double>(ports * kBatchesPerPort * kBatchSize);
    const double pps = total_packets / group.seconds;
    if (ports == 1) pps_at_1 = pps;
    rows.items.push_back(
        {bench::JsonInt("ports", ports),
         bench::JsonNum("group_pps", pps),
         bench::JsonNum("sequential_pps", total_packets / baseline.seconds),
         bench::JsonNum("speedup_vs_1port",
                        pps_at_1 > 0.0 ? pps / pps_at_1 : 0.0),
         bench::JsonInt("verdicts_identical", identical ? 1 : 0)});
    bench::Line("ports=" + std::to_string(ports) + " group_pps=" +
                std::to_string(pps) + (identical ? "" : " MISMATCH"));
  }

  bench::WriteBenchJson(
      "BENCH_multiport.json",
      {bench::JsonStr("bench", "multiport"),
       bench::JsonInt("hardware_concurrency",
                      std::thread::hardware_concurrency()),
       bench::JsonInt("batch_size", kBatchSize),
       bench::JsonInt("batches_per_port", kBatchesPerPort),
       bench::JsonInt("all_verdicts_identical", all_identical ? 1 : 0)},
      {rows}, "4 port counts");
  // A correctness break fails the run once the JSON is on disk.
  if (!all_identical) {
    std::fprintf(stderr,
                 "bench_multiport: verdicts differ from the solo baseline\n");
    std::exit(EXIT_FAILURE);
  }
}

void ReportAndEmitJson() {
  Report();
  EmitMultiportJson();
}

}  // namespace

ANALOGNF_BENCH_MAIN(ReportAndEmitJson)
