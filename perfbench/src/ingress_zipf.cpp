// ingress-zipf: closed-loop ingress through LoadDriver::Run — one port,
// Overflow::kBlock, Zipf(1.0) over 2^20 flows, IMIX sizes, the full
// Fig. 5 chain. Two threads: the producer synthesizing batches into the
// SPSC ring and the port worker running them to completion.
//
// Besides LoadDriver::Run itself, the benchmark drives a replica built
// from the same public pieces LoadDriver uses (TrafficSource, SpscRing,
// SwitchGroup::runtime(p).AttachRing with a RingHook). The replica must
// reproduce LoadDriver's verdicts and energy exactly, and its rate must
// match LoadDriver's within the mpps bound; it supplies the per-batch
// service times (untraced) and the per-layer split (traced).
//
// No-drain gap: PortRuntime's ring worker never calls DrainInto, so the
// egress queues here only fill and the analog AQM drops most packets.
// The numbers below measure that behaviour as it is.
#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analognf/arch/port_runtime.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/traffic/load_driver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace arch = analognf::arch;
namespace net = analognf::net;
namespace traffic = analognf::traffic;

constexpr std::size_t kBatch = 64;
constexpr std::size_t kRingBatches = 256;
constexpr std::uint64_t kPacketsPerRun = 262144;
// The replica's median rate may differ from LoadDriver::Run's by at most
// this share: the mpps bound in BENCHMARK.json.
constexpr double kReplicaRateTolerance = 0.25;

// The Fig. 5 chain: parse, firewall TCAM, LPM, analog load balancer,
// analog traffic classifier, two-class egress under the analog AQM.
arch::SwitchConfig FullChainConfig() {
  arch::SwitchConfig c;
  c.port_count = 4;
  c.service_classes = 2;
  c.scheduler = arch::SchedulerPolicy::kWeightedRoundRobin;
  c.wrr_weights = {3, 1};
  c.enable_aqm = true;
  c.enable_load_balancer = true;
  c.enable_classifier = true;
  c.classifier_classes = {
      {"interactive", 40.0, 400.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
      {"bulk", 400.0, 1600.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
  };
  return c;
}

traffic::LoadDriverConfig DriverConfig(std::uint64_t seed) {
  traffic::LoadDriverConfig c;
  c.ports = 1;
  c.switch_config = FullChainConfig();
  c.workload.population.flows = 1u << 20;
  c.workload.population.seed = DeriveSeed(c.workload.population.seed, seed);
  c.workload.zipf_s = 1.0;
  c.workload.arrivals.rate_pps = 1.0e6;
  c.workload.seed = DeriveSeed(c.workload.seed, seed);
  c.workload.sizes = traffic::WorkloadConfig::Sizes::kImix;
  c.packets_per_port = kPacketsPerRun;
  c.batch_size = kBatch;
  c.ring_capacity = kRingBatches;
  c.overflow = traffic::LoadDriverConfig::Overflow::kBlock;
  return c;
}

struct Outcome {
  arch::SwitchStats stats;
  double energy_j = 0.0;
  std::uint64_t offered = 0, achieved = 0, dropped = 0;
  double wall_s = 0.0;
};

bool SameOutcome(const Outcome& a, const Outcome& b) {
  const arch::SwitchStats& x = a.stats;
  const arch::SwitchStats& y = b.stats;
  return x.injected == y.injected && x.forwarded == y.forwarded &&
         x.parse_errors == y.parse_errors &&
         x.firewall_denies == y.firewall_denies && x.no_route == y.no_route &&
         x.aqm_drops == y.aqm_drops && x.queue_full == y.queue_full &&
         x.delivered == y.delivered && a.energy_j == b.energy_j &&
         a.offered == b.offered && a.achieved == b.achieved;
}

// Per-stage names, packets and ledger energy of one switch.
struct StageTotals {
  std::vector<std::string> names;
  std::vector<std::uint64_t> packets;
  std::vector<double> energy_j;
};

StageTotals ReadStages(const arch::CognitiveSwitch& sw) {
  StageTotals t;
  for (const auto& stage : sw.graph().stages()) {
    const arch::StageMetrics& m = stage->metrics();
    t.names.push_back(stage->name());
    t.packets.push_back(m.packets);
    t.energy_j.push_back(m.energy->energy_j);
  }
  return t;
}

// Per-layer totals of one traced replica run.
struct Layers {
  double synth_ns = 0.0, blocked_ns = 0.0, producer_ns = 0.0;
  double busy_ns = 0.0, gap_ns = 0.0;
  std::uint64_t producer_allocs = 0, worker_allocs = 0;
  std::vector<double> stage_ns;
  std::vector<double> wait_ns;
  StageTotals stages;  // the last traced run's switch, for energy
};

// Worker-side accounting; touched only by the port worker (in the ring
// hook) until DetachRing returns.
struct WorkerSide {
  std::uint64_t packets = 0;
  std::vector<double> service_ns;
  // Traced runs only.
  Tracer* tracer = nullptr;
  std::uint32_t span_batch = 0, span_wait = 0, span_gap = 0;
  std::vector<std::uint32_t> span_stage;
  std::uint64_t prev_done = 0;
  bool prev_ring_nonempty = false;
  std::uint64_t allocs_first = 0, allocs_last = 0;
  Layers* layers = nullptr;
};

struct ReplicaRun {
  Outcome outcome;
  std::vector<double> service_ns;
};

// One LoadDriver-equivalent run over `config`, optionally traced.
ReplicaRun RunReplica(const traffic::LoadDriverConfig& config,
                      Tracer* producer_tracer, Tracer* worker_tracer,
                      Layers* layers) {
  arch::SwitchGroup group(1, config.switch_config);
  group.AddFirewallRule(arch::FirewallPattern{}, true, 0);
  const traffic::PopulationConfig& pop = config.workload.population;
  for (std::uint32_t h = 0; h < pop.dst_hosts; ++h) {
    group.AddRoute(pop.dst_base + h, 32, h % config.switch_config.port_count);
  }
  group.Commit();

  traffic::WorkloadConfig w = config.workload;
  w.seed = analognf::SplitMix64(w.seed ^ 0x9047ULL).Next();  // port 0
  traffic::TrafficSource src = traffic::TrafficSource::Live(w);
  arch::PortRuntime::IngressRing ring(config.ring_capacity);

  WorkerSide ws;
  ws.service_ns.reserve(config.packets_per_port / config.batch_size + 1);
  ws.tracer = worker_tracer;
  ws.layers = layers;
  if (worker_tracer != nullptr) {
    ws.span_batch = worker_tracer->Intern("port.batch");
    ws.span_wait = worker_tracer->Intern("ring.wait");
    ws.span_gap = worker_tracer->Intern("port.gap");
    for (const auto& stage : group.device(0).graph().stages()) {
      ws.span_stage.push_back(worker_tracer->Intern("stage." + stage->name()));
    }
    layers->stage_ns.resize(ws.span_stage.size(), 0.0);
  }
  arch::CognitiveSwitch& sw = group.device(0);
  group.runtime(0).AttachRing(
      &ring, [&ws, &ring, &sw](const arch::PortRuntime::RingBatchInfo& info) {
        ws.packets += info.packets;
        ws.service_ns.push_back(static_cast<double>(info.done_ns - info.start_ns));
        if (ws.tracer == nullptr) return;
        Tracer& t = *ws.tracer;
        Layers& l = *ws.layers;
        const std::uint64_t allocs = ThreadAllocs();
        if (ws.prev_done == 0) ws.allocs_first = allocs;
        ws.allocs_last = allocs;
        t.Leaf(ws.span_wait, info.enqueue_ns, info.start_ns);
        l.wait_ns.push_back(static_cast<double>(info.start_ns - info.enqueue_ns));
        if (ws.prev_ring_nonempty) {
          t.Leaf(ws.span_gap, ws.prev_done, info.start_ns);
          l.gap_ns += static_cast<double>(info.start_ns - ws.prev_done);
        }
        t.Begin(ws.span_batch, info.start_ns);
        const std::vector<double>& stage_ns = sw.graph().last_stage_ns();
        std::uint64_t at = info.start_ns;
        for (std::size_t si = 0; si < stage_ns.size(); ++si) {
          const auto d = static_cast<std::uint64_t>(stage_ns[si]);
          t.Leaf(ws.span_stage[si], at, at + d);
          l.stage_ns[si] += stage_ns[si];
          at += d;
        }
        t.End(info.done_ns);
        l.busy_ns += static_cast<double>(info.done_ns - info.start_ns);
        ws.prev_done = info.done_ns;
        ws.prev_ring_nonempty = !ring.Empty();
      });

  Outcome out;
  const std::uint64_t t0 = NowNs();
  auto produce = [&] {
    std::uint64_t remaining = config.packets_per_port;
    std::vector<net::Packet> scratch;
    const std::uint64_t a0 = ThreadAllocs();
    std::uint32_t span_synth = 0, span_push = 0;
    if (producer_tracer != nullptr) {
      span_synth = producer_tracer->Intern("traffic.synth");
      span_push = producer_tracer->Intern("ring.push");
    }
    while (remaining > 0) {
      scratch.clear();
      double now_s = 0.0;
      const std::size_t want = static_cast<std::size_t>(
          std::min<std::uint64_t>(config.batch_size, remaining));
      const std::uint64_t s0 = producer_tracer != nullptr ? NowNs() : 0;
      const std::size_t n = src.NextBatch(want, scratch, now_s);
      remaining -= n;
      out.offered += n;
      arch::PortRuntime::Batch batch;
      batch.packets = std::move(scratch);
      batch.now_s = now_s;
      batch.enqueue_ns = NowNs();
      if (producer_tracer == nullptr) {
        while (!ring.TryPush(batch)) std::this_thread::yield();
        continue;
      }
      producer_tracer->Leaf(span_synth, s0, batch.enqueue_ns);
      layers->synth_ns += static_cast<double>(batch.enqueue_ns - s0);
      if (!ring.TryPush(batch)) {
        while (!ring.TryPush(batch)) std::this_thread::yield();
        const std::uint64_t pushed = NowNs();
        producer_tracer->Leaf(span_push, batch.enqueue_ns, pushed);
        layers->blocked_ns += static_cast<double>(pushed - batch.enqueue_ns);
      }
    }
    if (layers != nullptr) {
      layers->producer_allocs += ThreadAllocs() - a0;
      layers->producer_ns += static_cast<double>(NowNs() - t0);
    }
  };
  // The drain protocol below runs even if the producer fails, so the
  // worker is done with the ring before the ring goes out of scope.
  std::exception_ptr producer_error;
  std::thread producer([&] {
    try {
      produce();
    } catch (...) {
      producer_error = std::current_exception();
    }
  });
  producer.join();
  while (!ring.Empty()) std::this_thread::yield();
  group.runtime(0).DetachRing();
  group.WaitIdle();
  if (producer_error) std::rethrow_exception(producer_error);
  out.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  out.achieved = ws.packets;
  out.stats = group.device(0).stats();
  out.energy_j = group.device(0).ledger().TotalJ();
  if (layers != nullptr) {
    layers->worker_allocs += ws.allocs_last - ws.allocs_first;
    layers->stages = ReadStages(group.device(0));
  }
  return {out, std::move(ws.service_ns)};
}

Outcome FromReport(const traffic::LoadReport& report) {
  Outcome o;
  o.stats = report.stats;
  o.energy_j = report.energy_j;
  o.offered = report.offered_packets;
  o.achieved = report.achieved_packets;
  o.dropped = report.dropped_packets;
  o.wall_s = report.wall_s;
  return o;
}

}  // namespace

Result RunIngressZipf(const Options& opts, Calibration& calib) {
  Result r;
  const traffic::LoadDriverConfig config = DriverConfig(opts.seed);
  std::vector<double> setup_s, driver_mpps, replica_mpps, traced_mpps;  Chunks driver_chunks, replica_chunks;
  Outcome reference;
  bool have_reference = false;
  Layers layers;
  Tracer producer_tracer(0), worker_tracer(1);
  std::uint64_t traced_packets = 0;
  double traced_wall_s = 0.0;

  auto check = [&](const Outcome& o, const char* who) {
    const std::string tag = std::string("ingress-zipf ") + who;
    r.Check(o.offered == o.achieved + o.dropped,
            tag + ": offered != achieved + dropped");
    r.Check(o.dropped == 0, tag + ": ring dropped packets under kBlock");
    const arch::SwitchStats& s = o.stats;
    r.Check(s.forwarded + s.parse_errors + s.firewall_denies + s.no_route +
                    s.aqm_drops + s.queue_full ==
                s.injected,
            tag + ": verdict partition does not sum to injected");
    r.Check(s.injected == o.achieved, tag + ": injected != achieved");
    if (!have_reference) {
      reference = o;
      have_reference = true;
    } else {
      r.Check(SameOutcome(reference, o),
              tag + ": verdicts/energy differ from the first run");
    }
    r.attempted += o.offered;
    r.failed += o.dropped + s.parse_errors + s.no_route;
  };

  const std::uint64_t deadline =
      NowNs() + static_cast<std::uint64_t>(opts.seconds * 1e9);
  // Rotate LoadDriver::Run, the untraced replica and (traced runs only)
  // the traced replica, so host drift touches each alike.
  const int kinds = opts.trace ? 3 : 2;
  for (int i = 0; i < kinds || NowNs() < deadline; ++i) {
    const int kind = i % kinds;
    if (kind == 0) {
      traffic::LoadDriver driver(config);
      const std::uint64_t t0 = NowNs();
      const traffic::LoadReport report = driver.Run();
      const double total_s = static_cast<double>(NowNs() - t0) * 1e-9;
      setup_s.push_back(total_s - report.wall_s);
      driver_mpps.push_back(report.achieved_mpps);
      driver_chunks.Add(report.achieved_mpps, {});
      check(FromReport(report), "LoadDriver::Run");
    } else if (kind == 1) {
      ReplicaRun run = RunReplica(config, nullptr, nullptr, nullptr);
      replica_mpps.push_back(static_cast<double>(run.outcome.achieved) /
                             run.outcome.wall_s / 1e6);
      replica_chunks.Add(replica_mpps.back(), std::move(run.service_ns));
      check(run.outcome, "replica");
    } else {
      ReplicaRun run =
          RunReplica(config, &producer_tracer, &worker_tracer, &layers);
      traced_mpps.push_back(static_cast<double>(run.outcome.achieved) /
                            run.outcome.wall_s / 1e6);
      traced_packets += run.outcome.achieved;
      traced_wall_s += run.outcome.wall_s;
      check(run.outcome, "traced replica");
    }
    if (kind == kinds - 1) calib.Sample();
  }

  r.Check(std::abs(Median(replica_mpps) / Median(driver_mpps) - 1.0) <=
              kReplicaRateTolerance,
          "ingress-zipf: replica rate differs from LoadDriver::Run's by more "
          "than the mpps bound");
  r.Note("ingress-zipf: LoadDriver::Run " + std::to_string(Median(driver_mpps)) +
         " Mpkt/s, replica " + std::to_string(Median(replica_mpps)) +
         " Mpkt/s; per run: injected=" + std::to_string(reference.stats.injected) +
         " forwarded=" + std::to_string(reference.stats.forwarded) +
         " aqm_drops=" + std::to_string(reference.stats.aqm_drops) +
         " (egress is never drained on the ring path)");
  r.E2e("setup_s", "s", Median(setup_s));
  r.E2e("mpps", "Mpkt/s", driver_chunks.Rate());
  r.E2e("latency_us_p50", "us", replica_chunks.LatencyP50() / 1e3);
  r.E2e("latency_us_p90", "us", replica_chunks.LatencyP90() / 1e3);
  r.E2e("nj_per_pkt", "nJ",
        reference.energy_j * 1e9 / static_cast<double>(reference.stats.injected));

  if (opts.trace) {
    const auto pkts = static_cast<double>(traced_packets);
    const double wall_ns = traced_wall_s * 1e9;
    double stage_sum = 0.0;
    for (std::size_t si = 0; si < layers.stage_ns.size(); ++si) {
      stage_sum += layers.stage_ns[si];
      r.Layer("stage." + layers.stages.names[si] + ".ns_per_pkt", "ns",
              layers.stage_ns[si] / pkts);
    }
    const StageTotals& st = layers.stages;
    for (std::size_t si = 0; si < st.names.size(); ++si) {
      if (st.packets[si] == 0) continue;
      r.Layer("energy." + st.names[si] + ".nj_per_pkt", "nJ",
              st.energy_j[si] * 1e9 / static_cast<double>(st.packets[si]));
    }
    r.Layer("traffic.synth_ns_per_pkt", "ns", layers.synth_ns / pkts);
    r.Layer("traffic.allocs_per_pkt", "count",
            static_cast<double>(layers.producer_allocs) / pkts);
    r.Layer("port.allocs_per_pkt", "count",
            static_cast<double>(layers.worker_allocs) / pkts);
    r.Layer("ring.producer_blocked_fraction", "fraction",
            layers.blocked_ns / layers.producer_ns);
    r.Layer("ring.worker_idle_fraction", "fraction",
            1.0 - (layers.busy_ns + layers.gap_ns) / wall_ns);
    r.Layer("ring.wait_us_p50", "us", Median(layers.wait_ns) / 1e3);
    r.Layer("port.busy_ns_per_pkt", "ns", layers.busy_ns / pkts);
    r.Layer("port.gap_ns_per_pkt", "ns", layers.gap_ns / pkts);
    r.Layer("switch.inject_other_ns_per_pkt", "ns",
            (layers.busy_ns - stage_sum) / pkts);
    r.Layer("ingress.loaddriver_mpps", "Mpkt/s", Median(driver_mpps));
    r.Layer("ingress.replica_mpps", "Mpkt/s", Median(replica_mpps));
    r.Layer("trace.wall_ns_per_pkt", "ns", wall_ns / pkts);
    r.Layer("trace.layer_sum_ns_per_pkt", "ns",
            (layers.busy_ns + layers.gap_ns) / pkts);
    r.Layer("trace.overhead_fraction", "fraction",
            Median(replica_mpps) / Median(traced_mpps) - 1.0);
    r.Layer("trace.spans", "count",
            static_cast<double>(producer_tracer.spans() + worker_tracer.spans()));
    WriteTraces(opts.trace_out, {&producer_tracer, &worker_tracer});
  }
  return r;
}

}  // namespace perfbench
