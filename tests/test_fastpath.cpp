// Tests for the analog-stage fast path: the SoA flow table and batched
// flow tracker, the compiled WRR schedule (including runtime weight
// changes), the steady-state allocation guarantee of the inject +
// drain hot loop, and the ring-fed port worker's buffer ownership.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analognf/arch/port_runtime.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/cognitive/classifier.hpp"
#include "analognf/common/flow_table.hpp"
#include "analognf/net/generator.hpp"

#include "alloc_probe.hpp"

namespace analognf {
namespace {

using arch::CognitiveSwitch;
using arch::SchedulerPolicy;
using arch::SwitchConfig;
using cognitive::FlowFeatures;
using cognitive::FlowTracker;
using common::FlowTable;

// ------------------------------------------------------------ flow table

TEST(FlowTableTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(FlowTable<int>(0).capacity(), 16u);   // floor = probe window
  EXPECT_EQ(FlowTable<int>(16).capacity(), 16u);
  EXPECT_EQ(FlowTable<int>(17).capacity(), 32u);
  EXPECT_EQ(FlowTable<int>(1000).capacity(), 1024u);
}

// Two distinct keys that collide on bucket AND 7-bit fingerprint must
// still be distinguished by the key-lane comparison.
TEST(FlowTableTest, FingerprintAliasResolvedByKeyCompare) {
  FlowTable<int> table(16);  // capacity 16 -> bucket = hash >> 60
  // Birthday-scan for an aliasing pair: same top-4 hash bits (bucket)
  // and same low-7 hash bits (fingerprint), different keys.
  std::unordered_map<std::uint32_t, std::uint64_t> seen;
  std::uint64_t k1 = 0, k2 = 0;
  for (std::uint64_t key = 1; key < 100000; ++key) {
    const std::uint64_t h = FlowTable<int>::HashOf(key);
    const std::uint32_t sig =
        static_cast<std::uint32_t>((h >> 60) << 7 | (h & 0x7f));
    auto [it, inserted] = seen.emplace(sig, key);
    if (!inserted) {
      k1 = it->second;
      k2 = key;
      break;
    }
  }
  ASSERT_NE(k2, 0u) << "no aliasing key pair found in scan range";
  ASSERT_NE(k1, k2);

  *table.FindOrInsert(k1, FlowTable<int>::HashOf(k1)) = 111;
  *table.FindOrInsert(k2, FlowTable<int>::HashOf(k2)) = 222;
  EXPECT_EQ(table.size(), 2u);
  const int* v1 = table.Find(k1, FlowTable<int>::HashOf(k1));
  const int* v2 = table.Find(k2, FlowTable<int>::HashOf(k2));
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);
  EXPECT_EQ(*v1, 111);
  EXPECT_EQ(*v2, 222);
}

// Capacity 16 == one probe window covering the whole table, so 16 keys
// fill it and the 17th must evict exactly the least recently touched.
TEST(FlowTableTest, FullWindowEvictsLeastRecentlyTouched) {
  FlowTable<int> table(16);
  auto insert = [&](std::uint64_t key, int value) {
    *table.FindOrInsert(key, FlowTable<int>::HashOf(key)) = value;
  };
  for (std::uint64_t i = 0; i < 16; ++i) {
    insert(1000 + i, static_cast<int>(i));
  }
  EXPECT_EQ(table.size(), 16u);
  EXPECT_EQ(table.evictions(), 0u);

  // Freshen key 1000: its epoch is now the newest, key 1001 the stalest.
  EXPECT_NE(table.FindOrInsert(1000, FlowTable<int>::HashOf(1000)),
            nullptr);
  insert(2000, 99);  // window full -> evicts 1001

  EXPECT_EQ(table.evictions(), 1u);
  EXPECT_EQ(table.size(), 16u);
  EXPECT_EQ(table.Find(1001, FlowTable<int>::HashOf(1001)), nullptr);
  ASSERT_NE(table.Find(1000, FlowTable<int>::HashOf(1000)), nullptr);
  ASSERT_NE(table.Find(2000, FlowTable<int>::HashOf(2000)), nullptr);
  EXPECT_EQ(*table.Find(2000, FlowTable<int>::HashOf(2000)), 99);
}

// ---------------------------------------------- batched flow tracking

// ObserveBatch must be bit-identical to the sequential per-packet path,
// including when one flow repeats within a batch (the in-batch state
// carry is the subtle case).
TEST(FlowTrackerTest, ObserveBatchMatchesSequentialBitExact) {
  constexpr std::size_t kPackets = 256;
  constexpr std::size_t kBatch = 64;
  constexpr std::size_t kFlows = 13;  // << batch size: many repeats

  std::mt19937 rng(7);
  std::uniform_int_distribution<std::uint32_t> size_dist(64, 1500);
  std::uniform_real_distribution<double> gap_dist(1e-6, 5e-4);
  std::vector<net::PacketMeta> packets(kPackets);
  double now = 0.0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    now += gap_dist(rng);
    packets[i].id = i;
    packets[i].arrival_time_s = now;
    packets[i].size_bytes = size_dist(rng);
    packets[i].flow_hash = 0x9e3779b9u * (1 + rng() % kFlows);
  }

  FlowTracker sequential(0.05, 1024);
  FlowTracker batched(0.05, 1024);
  std::vector<FlowFeatures> expect(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    expect[i] = sequential.ObserveAndFeatures(packets[i]);
  }
  std::vector<FlowFeatures> got(kPackets);
  for (std::size_t base = 0; base < kPackets; base += kBatch) {
    batched.ObserveBatch(packets.data() + base, kBatch, got.data() + base);
  }

  for (std::size_t i = 0; i < kPackets; ++i) {
    EXPECT_EQ(got[i].packets, expect[i].packets) << "packet " << i;
    EXPECT_EQ(got[i].mean_packet_size_bytes,
              expect[i].mean_packet_size_bytes)
        << "packet " << i;
    EXPECT_EQ(got[i].mean_interarrival_s, expect[i].mean_interarrival_s)
        << "packet " << i;
    EXPECT_EQ(got[i].burstiness, expect[i].burstiness) << "packet " << i;
  }
  EXPECT_EQ(batched.flows(), sequential.flows());
}

// ------------------------------------------------------- WRR fairness

net::Packet MakeUdp(std::uint16_t sport, std::uint8_t dscp,
                    std::size_t payload = 1000) {
  net::EthernetHeader eth;
  eth.dst = {2, 0, 0, 0, 0, 1};
  eth.src = {2, 0, 0, 0, 0, 2};
  net::Ipv4Header ip;
  ip.src_ip = net::ParseIpv4("1.1.1.1");
  ip.dst_ip = net::ParseIpv4("10.0.0.1");
  ip.protocol = net::kIpProtoUdp;
  ip.dscp = dscp;
  net::UdpHeader udp;
  udp.src_port = sport;
  udp.dst_port = 2000;
  return net::PacketBuilder()
      .Ethernet(eth)
      .Ipv4(ip)
      .Udp(udp)
      .Payload(payload)
      .Build();
}

SwitchConfig WrrSwitch(std::size_t classes,
                       std::vector<std::uint32_t> weights) {
  SwitchConfig c;
  c.port_count = 2;
  c.port_rate_bps = 10.0e6;
  c.enable_aqm = false;
  c.service_classes = classes;
  c.scheduler = SchedulerPolicy::kWeightedRoundRobin;
  c.wrr_weights = std::move(weights);
  return c;
}

// Saturated three-class backlog served in 3:2:1 — pins the compiled
// schedule against the reference rotation for >2 classes.
TEST(WrrFastPathTest, LongRunRatiosThreeClasses) {
  CognitiveSwitch sw(WrrSwitch(3, {3, 2, 1}));
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 8, 0);
  // dscp 56 -> priority 7 -> class 0; dscp 24 -> class 1; 0 -> class 2.
  for (int i = 0; i < 60; ++i) {
    sw.Inject(MakeUdp(1, 56), 0.0);
    sw.Inject(MakeUdp(2, 24), 0.0);
    sw.Inject(MakeUdp(3, 0), 0.0);
  }
  const auto deliveries = sw.Drain(100.0);
  ASSERT_EQ(deliveries.size(), 180u);
  // While all three classes are backlogged (first 60 services = 10 full
  // schedule rounds), shares must match the weights exactly +-1 round.
  int served[3] = {0, 0, 0};
  for (std::size_t i = 0; i < 60; ++i) {
    ASSERT_LT(deliveries[i].service_class, 3u);
    ++served[deliveries[i].service_class];
  }
  EXPECT_NEAR(served[0], 30, 3);
  EXPECT_NEAR(served[1], 20, 3);
  EXPECT_NEAR(served[2], 10, 3);
}

// Changing weights at a batch boundary recompiles the schedule and takes
// effect for every subsequent dequeue; in-flight traffic already
// dequeued keeps its old ordering.
TEST(WrrFastPathTest, WeightChangeAppliesAtBatchBoundary) {
  CognitiveSwitch sw(WrrSwitch(2, {3, 1}));
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 8, 0);
  auto backlog_ratio = [&](double start_s) {
    for (int i = 0; i < 40; ++i) {
      sw.Inject(MakeUdp(1, 46), start_s);
      sw.Inject(MakeUdp(2, 0), start_s);
    }
    const auto deliveries = sw.Drain(start_s + 100.0);
    EXPECT_EQ(deliveries.size(), 80u);
    int high = 0;
    for (std::size_t i = 0; i < 40 && i < deliveries.size(); ++i) {
      if (deliveries[i].service_class == 0) ++high;
    }
    return high;  // class-0 share of the first 40 backlogged services
  };

  EXPECT_NEAR(backlog_ratio(0.0), 30, 2);  // 3:1
  sw.SetWrrWeights({1, 3});                // queues drained: boundary
  EXPECT_NEAR(backlog_ratio(200.0), 10, 2);  // 1:3 after the change
  sw.SetWrrWeights({1, 1});
  EXPECT_NEAR(backlog_ratio(400.0), 20, 2);  // even split
}

TEST(WrrFastPathTest, SingleClassDegenerateServesFifo) {
  CognitiveSwitch sw(WrrSwitch(1, {5}));
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 8, 0);
  for (int i = 0; i < 20; ++i) sw.Inject(MakeUdp(1, 0), 0.0);
  const auto deliveries = sw.Drain(100.0);
  ASSERT_EQ(deliveries.size(), 20u);
  for (const auto& d : deliveries) EXPECT_EQ(d.service_class, 0u);
  // FIFO order within the single class.
  for (std::size_t i = 1; i < deliveries.size(); ++i) {
    EXPECT_GE(deliveries[i].departure_s, deliveries[i - 1].departure_s);
  }
}

TEST(WrrFastPathTest, SetWrrWeightsValidates) {
  CognitiveSwitch sw(WrrSwitch(2, {3, 1}));
  EXPECT_THROW(sw.SetWrrWeights({1, 2, 3}), std::invalid_argument);
  EXPECT_THROW(sw.SetWrrWeights({0, 1}), std::invalid_argument);
  EXPECT_THROW(sw.SetWrrWeights({}), std::invalid_argument);
  EXPECT_NO_THROW(sw.SetWrrWeights({2, 5}));
}

// ------------------------------------------- steady-state allocations

// Two ports, two classes, every analog stage on (AQM, load balancer,
// classifier): the configuration the allocation tests hold to account.
SwitchConfig AllStagesConfig() {
  SwitchConfig c;
  c.port_count = 2;
  c.enable_aqm = true;
  c.enable_load_balancer = true;
  c.enable_classifier = true;
  c.classifier_classes = {
      {"interactive", 40.0, 400.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
      {"bulk", 400.0, 1600.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
  };
  c.service_classes = 2;
  return c;
}

// 64 UDP frames to 10.0.0.1 over 16 flows, two DSCPs and 8 sizes.
std::vector<net::Packet> AllocationTestBatch() {
  std::vector<net::Packet> packets;
  packets.reserve(64);
  for (std::size_t i = 0; i < 64; ++i) {
    packets.push_back(MakeUdp(static_cast<std::uint16_t>(1000 + i % 16),
                              i % 2 ? 46 : 0, 100 + (i % 8) * 50));
  }
  return packets;
}

// After warmup, one InjectBatch + DrainInto round trip may allocate only
// the verdict vector InjectBatch returns by value — every stage arena,
// egress ring, flow table and telemetry record is preallocated. A
// regression anywhere in the hot path (a stray std::vector in a stage, a
// map insert, a deque node) trips this immediately.
TEST(FastPathAllocationTest, InjectDrainLoopIsAllocationFree) {
  SwitchConfig c = AllStagesConfig();
  c.port_rate_bps = 100.0e9;  // fast ports: queues drain every round
  c.scheduler = SchedulerPolicy::kWeightedRoundRobin;
  c.wrr_weights = {3, 1};
  CognitiveSwitch sw(c);
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 8, 0);

  const std::vector<net::Packet> packets = AllocationTestBatch();

  std::vector<arch::Delivery> drained;
  double now = 0.0;
  std::size_t verdict_total = 0;  // checked after the counted region
  auto round = [&] {
    now += 1e-3;
    verdict_total += sw.InjectBatch(packets, now).size();
    drained.clear();  // keeps capacity
    sw.DrainInto(now + 1e-3, drained);
  };

  // Warm every arena, scratch vector, ring and memo (first rounds grow
  // them to steady-state capacity).
  for (int i = 0; i < 8; ++i) round();

  constexpr std::uint64_t kReps = 5;
  alloc_probe::count = 0;
  alloc_probe::counting = true;
  for (std::uint64_t i = 0; i < kReps; ++i) round();
  alloc_probe::counting = false;

  EXPECT_EQ(verdict_total, packets.size() * (8 + kReps));
  // Exactly one allocation per round: the returned verdict vector.
  EXPECT_LE(alloc_probe::count, kReps);
}

// The ring-fed port worker only borrows the producer's packet buffers:
// TryPop exchanges its spent batch back into the ring, and the producer
// frees it on its next push. The worker runs each batch through
// RunBatch, which builds no verdict copy, so counted on the worker from
// the ring hook a steady-state batch allocates and frees nothing.
TEST(FastPathAllocationTest, RingWorkerFreesNoPacketBuffers) {
  SwitchConfig c = AllStagesConfig();
  // The ring worker never drains, so bound the egress queues: their
  // growth would be the worker's own memory, not the producer's.
  c.egress_queue.max_packets = 64;
  arch::SwitchGroup group(1, c);
  group.AddFirewallRule(arch::FirewallPattern{}, true, 0);
  group.AddRoute(net::ParseIpv4("10.0.0.0"), 8, 0);
  group.Commit();

  constexpr std::uint64_t kWarm = 8;
  constexpr std::uint64_t kCounted = 32;
  const std::vector<net::Packet> packets = AllocationTestBatch();

  // Touched only by the worker (in the hook) until DetachRing returns.
  std::uint64_t batches = 0;
  std::uint64_t worker_allocs = 0;
  std::uint64_t worker_frees = 0;
  arch::PortRuntime::IngressRing ring(4);
  group.runtime(0).AttachRing(
      &ring, [&](const arch::PortRuntime::RingBatchInfo&) {
        ++batches;
        if (batches == kWarm) {
          alloc_probe::count = 0;
          alloc_probe::frees = 0;
          alloc_probe::counting = true;
        } else if (batches == kWarm + kCounted) {
          alloc_probe::counting = false;
          worker_allocs = alloc_probe::count;
          worker_frees = alloc_probe::frees;
        }
      });
  double now_s = 0.0;
  for (std::uint64_t b = 0; b < kWarm + kCounted; ++b) {
    arch::PortRuntime::Batch batch;
    batch.packets = packets;  // fresh buffers, allocated on this thread
    now_s += 1e-5;
    batch.now_s = now_s;
    while (!ring.TryPush(batch)) std::this_thread::yield();
  }
  while (!ring.Empty()) std::this_thread::yield();
  group.runtime(0).DetachRing();

  ASSERT_EQ(batches, kWarm + kCounted);
  EXPECT_EQ(group.device(0).stats().injected,
            packets.size() * (kWarm + kCounted));
  EXPECT_EQ(worker_allocs, 0u);
  EXPECT_EQ(worker_frees, 0u);
}

// The same rule on the Submit path: Submit pushes onto the port's own
// ring, so the worker exchanges each spent batch back and the submitter
// frees it on a later push. Counting is armed and disarmed on the worker
// by commands queued around the counted batches; a steady-state batch
// allocates and frees nothing on the worker.
TEST(FastPathAllocationTest, SubmitWorkerFreesNoPacketBuffers) {
  SwitchConfig c = AllStagesConfig();
  // Nothing drains the egress queues, so bound them (see above).
  c.egress_queue.max_packets = 64;
  arch::SwitchGroup group(1, c);
  group.AddFirewallRule(arch::FirewallPattern{}, true, 0);
  group.AddRoute(net::ParseIpv4("10.0.0.0"), 8, 0);
  group.Commit();

  constexpr std::uint64_t kWarm = 8;
  constexpr std::uint64_t kCounted = 32;
  const std::vector<net::Packet> packets = AllocationTestBatch();
  double now_s = 0.0;
  auto submit = [&](std::uint64_t batches) {
    for (std::uint64_t b = 0; b < batches; ++b) {
      now_s += 1e-5;
      group.Submit(0, packets, now_s);  // fresh buffers, this thread's
    }
  };

  // Written by the worker before WaitIdle.
  std::uint64_t worker_allocs = 0;
  std::uint64_t worker_frees = 0;
  submit(kWarm);
  group.runtime(0).Apply([](arch::CognitiveSwitch&) {
    alloc_probe::count = 0;
    alloc_probe::frees = 0;
    alloc_probe::counting = true;
  });
  submit(kCounted);
  group.runtime(0).Apply(
      [&worker_allocs, &worker_frees](arch::CognitiveSwitch&) {
        alloc_probe::counting = false;
        worker_allocs = alloc_probe::count;
        worker_frees = alloc_probe::frees;
      });
  group.WaitIdle();

  EXPECT_EQ(group.device(0).stats().injected,
            packets.size() * (kWarm + kCounted));
  EXPECT_EQ(worker_allocs, 0u);
  EXPECT_EQ(worker_frees, 0u);
}

}  // namespace
}  // namespace analognf
