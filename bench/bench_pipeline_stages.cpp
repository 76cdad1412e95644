// Stage-graph pipeline cost breakdown: per-stage wall-clock (ns/packet)
// and attributed energy (nJ/packet) across ingress batch sizes, over the
// full Fig. 5 chain (parse -> firewall TCAM -> LPM route -> analog load
// balancer -> analog traffic classifier -> cognitive traffic manager).
//
// Besides the google-benchmark timings, this binary self-times the
// pipeline and writes the per-stage measurements to BENCH_pipeline.json
// (machine-readable, consumed by CI). Energy attribution comes from the
// switch's stage ledger, so the nJ/packet columns are deterministic;
// only the ns/packet columns depend on the host.
#include "bench_util.hpp"

#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "analognf/arch/stages.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/cognitive/classifier.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/common/simd.hpp"
#include "analognf/net/packet.hpp"
#include "analognf/traffic/zipf.hpp"

namespace {

using namespace analognf;

arch::SwitchConfig PipelineConfig() {
  arch::SwitchConfig c;
  c.port_count = 4;
  c.port_rate_bps = 100.0e9;  // fast egress: admission, not drainage
  c.service_classes = 2;
  c.enable_aqm = true;
  c.enable_load_balancer = true;  // balance the whole port group
  c.enable_classifier = true;
  c.classifier_classes = {
      {"interactive", 40.0, 400.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
      {"bulk", 400.0, 1600.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
  };
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

std::vector<net::Packet> MakeTraffic(std::size_t count) {
  analognf::RandomStream rng(0x9199);
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

// Firewall rule-set size used throughout: large enough that the engine
// compiles to the pruned match tier (the ISSUE/ROADMAP target point is
// 1024 rules at batch 256).
constexpr std::size_t kFirewallRules = 1024;

std::unique_ptr<arch::CognitiveSwitch> MakeSwitch(
    std::size_t firewall_rules = kFirewallRules) {
  auto sw = std::make_unique<arch::CognitiveSwitch>(PipelineConfig());
  sw->AddRoute(net::ParseIpv4("10.0.0.0"), 24, 0);
  // ACL-style mix: /32 source-host rules (the first 256 cover the live
  // flows, the rest are cold), a third also pinning a dst /24, a third
  // also pinning a dst port. Everything permits, so the verdict stream
  // is identical to the single catch-all rule — only the match work and
  // the stored-bit energy change.
  for (std::size_t i = 0; i + 1 < firewall_rules; ++i) {
    arch::FirewallPattern p;
    p.src_ip = 0x01010000u + static_cast<std::uint32_t>(i);
    p.src_prefix_len = 32;
    if (i % 3 == 1) {
      p.dst_ip = 0x0a000000u + static_cast<std::uint32_t>(i & 0xff);
      p.dst_prefix_len = 24;
    } else if (i % 3 == 2) {
      p.any_dst_port = false;
      p.dst_port = 53;
    }
    sw->AddFirewallRule(p, true, 2);
  }
  sw->AddFirewallRule(arch::FirewallPattern{}, true, 1);
  return sw;
}

void Report() {
  bench::Banner("stage-graph pipeline: per-stage ns/packet and nJ/packet");
  bench::Line("full Fig. 5 chain incl. analog load balancer + classifier; "
              "energy columns are deterministic stage-ledger attribution");
}

// --- google-benchmark timings -------------------------------------------

void BM_PipelineInjectBatch(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  auto sw = MakeSwitch();
  const auto packets = MakeTraffic(batch);
  std::vector<arch::Delivery> drained;
  double now_s = 0.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sw->InjectBatch(packets, now_s));
    now_s += 1.0e-3;
    drained.clear();
    sw->DrainInto(now_s, drained);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PipelineInjectBatch)
    ->Arg(1)
    ->Arg(64)
    ->Arg(256)
    ->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// The traffic-class stage's flow tracking alone, batch 64, on the two
// flow shapes the port worker sees: arg 0 is 256 uniform flows (the
// pipeline traffic above; the table never evicts), arg 1 is Zipf(1.0)
// over 2^20 flows (the ingress-zipf workload; probe windows fill and
// evict). The tracker persists across iterations, so the timing is the
// steady state of a 262 144-packet stream replayed in order.
void BM_FlowTrackerObserveBatch(benchmark::State& state) {
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kPackets = 262'144;
  const bool zipf_flows = state.range(0) != 0;
  const traffic::ZipfSampler zipf(std::uint64_t{1} << 20, 1.0);
  analognf::RandomStream rng(1);
  std::vector<net::PacketMeta> packets(kPackets);
  double now_s = 0.0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    now_s += rng.NextExponential(1.0e6);
    packets[i].id = i;
    packets[i].arrival_time_s = now_s;
    packets[i].size_bytes =
        64 + static_cast<std::uint32_t>(rng.NextIndex(1437));
    const std::uint64_t flow =
        zipf_flows ? zipf.Sample(rng) : rng.NextIndex(256);
    // Parsed 5-tuple hashes are well mixed.
    packets[i].flow_hash = analognf::SplitMix64(flow).Next();
  }
  cognitive::FlowTracker tracker;
  std::vector<cognitive::FlowFeatures> features(kBatch);
  std::size_t base = 0;
  for (auto _ : state) {
    tracker.ObserveBatch(packets.data() + base, kBatch, features.data());
    benchmark::DoNotOptimize(features.data());
    benchmark::ClobberMemory();
    base = (base + kBatch) % kPackets;
  }
  state.SetLabel(zipf_flows ? "zipf-2^20" : "uniform-256");
  const auto observed = state.iterations() * static_cast<std::int64_t>(kBatch);
  // Share of observed packets that aged a flow out of a full window.
  state.counters["evicting"] = static_cast<double>(tracker.evictions()) /
                               static_cast<double>(observed);
  state.SetItemsProcessed(observed);
}
BENCHMARK(BM_FlowTrackerObserveBatch)->Arg(0)->Arg(1);

// --- machine-readable measurements (BENCH_pipeline.json) ----------------

struct StageRow {
  std::size_t batch;
  std::string stage;
  double ns_per_packet;
  double nj_per_packet;
  double energy_fraction;
};

void EmitPipelineJson() {
  const std::size_t batches[] = {1, 64, 256, 1024};
  constexpr std::size_t kPacketsPerSize = 32768;
  std::vector<StageRow> rows;
  std::vector<double> total_ns;
  std::vector<double> total_nj;

  for (const std::size_t batch : batches) {
    auto sw = MakeSwitch();
    const auto packets = MakeTraffic(batch);
    std::vector<arch::Delivery> drained;
    double now_s = 0.0;
    // Warm caches/snapshots so the timed region is steady-state, then
    // snapshot each stage's clock so the warmup batch is excluded from
    // the emitted ns/packet. The first batch pays one-off costs (TCAM
    // rule compile, pCAM snapshot build, scratch growth) that at small
    // rep counts used to skew whole columns — at batch 256 the load
    // balancer read ~2x its steady-state cost. Energy stays a full-run
    // average: it is deterministic per packet, so the warmup batch does
    // not bias it.
    sw->InjectBatch(packets, now_s);
    std::vector<double> warm_ns;
    std::vector<std::uint64_t> warm_packets;
    for (const auto& stage : sw->graph().stages()) {
      warm_ns.push_back(stage->metrics().process_ns);
      warm_packets.push_back(stage->metrics().packets);
    }
    const std::size_t reps = kPacketsPerSize / batch;
    for (std::size_t r = 0; r < reps; ++r) {
      now_s += 1.0e-3;
      sw->InjectBatch(packets, now_s);
      drained.clear();
      sw->DrainInto(now_s, drained);
    }
    const double total_j = sw->ledger().TotalJ();
    double ns_sum = 0.0;
    double nj_sum = 0.0;
    std::size_t si = 0;
    for (const auto& stage : sw->graph().stages()) {
      const arch::StageMetrics& m = stage->metrics();
      const auto steady =
          static_cast<double>(m.packets - warm_packets[si]);
      const double ns = (m.process_ns - warm_ns[si]) / steady;
      const double nj =
          m.energy->energy_j * 1.0e9 / static_cast<double>(m.packets);
      rows.push_back({batch, stage->name(), ns, nj,
                      m.energy->energy_j / total_j});
      ns_sum += ns;
      nj_sum += nj;
      ++si;
    }
    total_ns.push_back(ns_sum);
    total_nj.push_back(nj_sum);
  }

  bench::JsonArray stages{"stages", {}};
  for (const StageRow& r : rows) {
    stages.items.push_back(
        {bench::JsonInt("batch", r.batch), bench::JsonStr("stage", r.stage),
         bench::JsonNum("ns_per_packet", r.ns_per_packet),
         bench::JsonNum("nj_per_packet", r.nj_per_packet),
         bench::JsonNum("energy_fraction", r.energy_fraction)});
  }
  bench::JsonArray totals{"totals", {}};
  for (std::size_t i = 0; i < 4; ++i) {
    totals.items.push_back(
        {bench::JsonInt("batch", batches[i]),
         bench::JsonNum("ns_per_packet", total_ns[i]),
         bench::JsonNum("mpps", 1000.0 / total_ns[i]),
         bench::JsonNum("nj_per_packet", total_nj[i])});
  }
  bench::WriteBenchJson("BENCH_pipeline.json",
                        {bench::JsonStr("bench", "pipeline_stages"),
                         bench::JsonStr("isa", simd::IsaName()),
                         bench::JsonInt("firewall_rules", kFirewallRules)},
                        {stages, totals},
                        std::to_string(rows.size()) + " stage rows");
}

void ReportAndEmitJson() {
  Report();
  EmitPipelineJson();
}

}  // namespace

ANALOGNF_BENCH_MAIN(ReportAndEmitJson)
