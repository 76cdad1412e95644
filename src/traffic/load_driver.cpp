#include "analognf/traffic/load_driver.hpp"

#include <algorithm>
#include <chrono>
#include <limits>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "analognf/common/stats.hpp"

namespace analognf::traffic {
namespace {

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Single-writer accounting structs. The producer thread owns Producer-
// Side, the port worker owns WorkerSide (via the ring hook); the driver
// thread reads both only after joining / detaching, where the thread
// join and the DetachRing fence give the happens-before.
struct ProducerSide {
  std::uint64_t offered_packets = 0;
  std::uint64_t offered_batches = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t dropped_batches = 0;
  double model_time_s = 0.0;
};

struct WorkerSide {
  std::uint64_t achieved_packets = 0;
  std::uint64_t achieved_batches = 0;
  // Enqueue-to-retire sojourn of every batch, reserved before the run
  // so the hook never allocates.
  std::vector<double> sojourn_ns;
  telemetry::HistogramHandle batch_ns;
};

}  // namespace

void LoadDriverConfig::Validate() const {
  if (ports == 0) {
    throw std::invalid_argument("LoadDriverConfig: ports == 0");
  }
  if (batch_size == 0) {
    throw std::invalid_argument("LoadDriverConfig: batch_size == 0");
  }
  if (ring_capacity == 0) {
    throw std::invalid_argument("LoadDriverConfig: ring_capacity == 0");
  }
  workload.Validate();
  switch_config.Validate();
}

LoadDriver::LoadDriver(LoadDriverConfig config) : config_(std::move(config)) {
  config_.Validate();
}

LoadReport LoadDriver::Run(std::vector<Trace>* record) {
  if (record != nullptr) {
    record->assign(config_.ports, Trace{});
  }
  std::vector<TrafficSource> sources;
  sources.reserve(config_.ports);
  for (std::size_t p = 0; p < config_.ports; ++p) {
    WorkloadConfig w = config_.workload;
    // Per-port sampler/arrival sub-streams over the SAME population:
    // ports see different packets from one shared flow universe.
    analognf::SplitMix64 sm(w.seed ^ (0x9047ULL + p));
    w.seed = sm.Next();
    sources.push_back(TrafficSource::Live(w));
    if (record != nullptr) sources.back().RecordTo(&(*record)[p]);
  }
  return Drive(std::move(sources), config_.packets_per_port,
               config_.packets_per_port / config_.batch_size + 1);
}

LoadReport LoadDriver::RunReplay(const std::vector<Trace>& traces) {
  if (traces.size() != config_.ports) {
    throw std::invalid_argument("LoadDriver::RunReplay: trace count != ports");
  }
  std::vector<TrafficSource> sources;
  sources.reserve(config_.ports);
  std::size_t max_batches = 0;
  for (const Trace& trace : traces) {
    sources.push_back(TrafficSource::Replay(trace));
    max_batches = std::max(max_batches,
                           trace.records.size() / config_.batch_size + 1);
  }
  // Traces play to their end regardless of packets_per_port.
  return Drive(std::move(sources), std::numeric_limits<std::uint64_t>::max(),
               max_batches);
}

LoadReport LoadDriver::Drive(std::vector<TrafficSource> sources,
                             std::uint64_t packet_limit,
                             std::size_t max_batches) {
  const std::size_t ports = config_.ports;
  arch::SwitchGroup group(ports, config_.switch_config);
  // A permit-all firewall rule plus one /32 route per population
  // destination host, round-robined over the switch's egress ports: a
  // closed system out of the box.
  group.AddFirewallRule(arch::FirewallPattern{}, true, 0);
  const PopulationConfig& pop = config_.workload.population;
  for (std::uint32_t h = 0; h < pop.dst_hosts; ++h) {
    group.AddRoute(pop.dst_base + h, 32, h % config_.switch_config.port_count);
  }
  group.Commit();

  std::vector<std::unique_ptr<arch::PortRuntime::IngressRing>> rings;
  std::vector<std::unique_ptr<WorkerSide>> workers;
  std::vector<ProducerSide> producers(ports);
  rings.reserve(ports);
  workers.reserve(ports);
  for (std::size_t p = 0; p < ports; ++p) {
    rings.push_back(std::make_unique<arch::PortRuntime::IngressRing>(
        config_.ring_capacity));
    workers.push_back(std::make_unique<WorkerSide>());
    workers[p]->sojourn_ns.reserve(max_batches);
    workers[p]->batch_ns = group.device(p).telemetry().metrics().GetHistogram(
        "ingress.batch_ns", telemetry::HistogramSpec{256.0, 2.0, 24});
    WorkerSide* w = workers[p].get();
    group.runtime(p).AttachRing(
        rings[p].get(), [w](const arch::PortRuntime::RingBatchInfo& info) {
          w->achieved_packets += info.packets;
          ++w->achieved_batches;
          const auto sojourn =
              static_cast<double>(info.done_ns - info.enqueue_ns);
          w->sojourn_ns.push_back(sojourn);
          w->batch_ns.Observe(sojourn);
        });
  }

  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(ports);
  for (std::size_t p = 0; p < ports; ++p) {
    threads.emplace_back([this, p, packet_limit, &sources, &rings,
                          &producers] {
      TrafficSource& src = sources[p];
      arch::PortRuntime::IngressRing& ring = *rings[p];
      ProducerSide& acct = producers[p];
      std::uint64_t remaining = packet_limit;
      std::vector<net::Packet> scratch;
      while (remaining > 0) {
        scratch.clear();
        double now_s = 0.0;
        const std::size_t want = static_cast<std::size_t>(
            std::min<std::uint64_t>(config_.batch_size, remaining));
        const std::size_t n = src.NextBatch(want, scratch, now_s);
        if (n == 0) break;  // replay source exhausted
        remaining -= n;
        acct.offered_packets += n;
        ++acct.offered_batches;
        acct.model_time_s = now_s;
        arch::PortRuntime::Batch batch;
        batch.packets = std::move(scratch);
        batch.now_s = now_s;
        batch.enqueue_ns = SteadyNowNs();
        if (config_.overflow == LoadDriverConfig::Overflow::kBlock) {
          // TryPush leaves the batch intact on failure, so spinning
          // retries the same batch — lossless backpressure.
          while (!ring.TryPush(batch)) std::this_thread::yield();
        } else if (!ring.TryPush(batch)) {
          acct.dropped_packets += n;
          ++acct.dropped_batches;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  // Drain protocol: producers are done, so waiting for ring-empty then
  // detaching guarantees every non-dropped batch was popped AND fully
  // executed before we read the worker-side accounting. The ring's slots
  // still hold the spent batches the worker exchanged back; releasing
  // the ring here frees them inside the timed region, where the run's
  // other packet buffers are freed too.
  for (std::size_t p = 0; p < ports; ++p) {
    while (!rings[p]->Empty()) std::this_thread::yield();
    group.runtime(p).DetachRing();
    rings[p].reset();
  }
  group.WaitIdle();
  const auto wall_stop = std::chrono::steady_clock::now();

  LoadReport report;
  report.wall_s = std::chrono::duration<double>(wall_stop - wall_start).count();
  report.ports.resize(ports);
  for (std::size_t p = 0; p < ports; ++p) {
    PortLoadStats& ps = report.ports[p];
    const ProducerSide& prod = producers[p];
    WorkerSide& work = *workers[p];
    ps.offered_packets = prod.offered_packets;
    ps.offered_batches = prod.offered_batches;
    ps.dropped_packets = prod.dropped_packets;
    ps.dropped_batches = prod.dropped_batches;
    ps.model_time_s = prod.model_time_s;
    ps.achieved_packets = work.achieved_packets;
    ps.achieved_batches = work.achieved_batches;
    if (!work.sojourn_ns.empty()) {
      ps.p50_batch_ns = PercentileInPlace(work.sojourn_ns, 0.5);
      ps.p99_batch_ns = PercentileInPlace(work.sojourn_ns, 0.99);
    }
    ps.stats = group.device(p).stats();
    ps.energy_j = group.device(p).ledger().TotalJ();

    // Authoritative load counts land in the port's registry once, from
    // this (driver) thread, after the run — sharded cells stay exact.
    telemetry::MetricsRegistry& metrics = group.device(p).telemetry().metrics();
    metrics.GetCounter("ingress.offered_packets").Inc(ps.offered_packets);
    metrics.GetCounter("ingress.achieved_packets").Inc(ps.achieved_packets);
    metrics.GetCounter("ingress.dropped_packets").Inc(ps.dropped_packets);

    report.offered_packets += ps.offered_packets;
    report.achieved_packets += ps.achieved_packets;
    report.dropped_packets += ps.dropped_packets;
    report.energy_j += ps.energy_j;
  }
  report.stats = group.AggregateStats();
  report.achieved_mpps =
      report.wall_s > 0.0
          ? static_cast<double>(report.achieved_packets) / report.wall_s / 1e6
          : 0.0;
  if (config_.inspect) config_.inspect(group, report);
  return report;
}

}  // namespace analognf::traffic
