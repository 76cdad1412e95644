// Tests for the analog-stage fast path: the SoA flow table and batched
// flow tracker, the compiled WRR schedule (including runtime weight
// changes), the steady-state allocation guarantee of the inject +
// drain hot loop, and the ring-fed port worker's buffer ownership.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "analognf/arch/port_runtime.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/cognitive/classifier.hpp"
#include "analognf/common/flow_table.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/common/simd.hpp"
#include "analognf/net/generator.hpp"
#include "analognf/traffic/zipf.hpp"

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

// Every window position of a lane mixing empty bytes, the probed
// fingerprint, other occupied fingerprints and the probe's low 7 bits
// without the occupied bit: the dispatched (SSE2 when compiled) and the
// scalar kernel must both return exactly the per-byte compare.
TEST(FlowTableTest, WindowMatchKernelsAgreeAtEveryPosition) {
  constexpr std::size_t kLane = 256;
  std::mt19937 rng(11);
  for (const std::uint8_t fp : {std::uint8_t{0x80}, std::uint8_t{0xa5},
                                std::uint8_t{0xff}}) {
    std::vector<std::uint8_t> lane(kLane + simd::kProbeWindowBytes);
    for (std::uint8_t& b : lane) {
      switch (rng() % 4) {
        case 0: b = 0; break;
        case 1: b = fp; break;
        case 2: b = static_cast<std::uint8_t>(fp & 0x7f); break;
        default: b = static_cast<std::uint8_t>(0x80 | (rng() & 0x7f));
      }
    }
    for (std::size_t pos = 0; pos < kLane; ++pos) {
      std::uint32_t match = 0, empty = 0;
      for (std::size_t p = 0; p < simd::kProbeWindowBytes; ++p) {
        if (lane[pos + p] == fp) match |= 1u << p;
        if (lane[pos + p] == 0) empty |= 1u << p;
      }
      const simd::WindowBits scalar =
          simd::ProbeWindowMatchScalar(&lane[pos], fp);
      EXPECT_EQ(scalar.match, match) << "pos " << pos;
      EXPECT_EQ(scalar.empty, empty) << "pos " << pos;
#ifdef ANALOGNF_SIMD_SSE2
      const simd::WindowBits sse2 =
          simd::ProbeWindowMatchSse2(&lane[pos], fp);
      EXPECT_EQ(sse2.match, match) << "pos " << pos;
      EXPECT_EQ(sse2.empty, empty) << "pos " << pos;
#endif
      const simd::WindowBits dispatched =
          simd::ProbeWindowMatch(&lane[pos], fp);
      EXPECT_EQ(dispatched.match, match) << "pos " << pos;
      EXPECT_EQ(dispatched.empty, empty) << "pos " << pos;
    }
  }
}

// Brute-force model of the probe rule, one slot at a time with explicit
// wrap-around: a key match anywhere in the window wins, else the first
// empty slot in probe order, else the least recently touched slot.
class ReferenceFlowTable {
 public:
  explicit ReferenceFlowTable(std::size_t capacity)
      : fingerprints_(capacity), keys_(capacity), epochs_(capacity),
        values_(capacity) {}

  int* FindOrInsert(std::uint64_t key, std::uint64_t hash) {
    const std::size_t bucket = Bucket(hash);
    const std::uint8_t fp = Fingerprint(hash);
    std::size_t empty_slot = kNone;
    std::size_t stale_slot = kNone;
    for (std::size_t p = 0; p < kWindow; ++p) {
      const std::size_t slot = (bucket + p) % capacity();
      if (fingerprints_[slot] == fp && keys_[slot] == key) {
        epochs_[slot] = ++epoch_;
        return &values_[slot];
      }
      if (fingerprints_[slot] == 0) {
        if (empty_slot == kNone) empty_slot = slot;
      } else if (stale_slot == kNone || epochs_[slot] < epochs_[stale_slot]) {
        stale_slot = slot;
      }
    }
    std::size_t slot = empty_slot;
    if (slot == kNone) {
      slot = stale_slot;
      ++evictions_;
      --size_;
    }
    if (slot < bucket) ++wrapped_inserts_;
    fingerprints_[slot] = fp;
    keys_[slot] = key;
    epochs_[slot] = ++epoch_;
    values_[slot] = 0;
    ++size_;
    return &values_[slot];
  }

  const int* Find(std::uint64_t key, std::uint64_t hash) const {
    const std::size_t bucket = Bucket(hash);
    for (std::size_t p = 0; p < kWindow; ++p) {
      const std::size_t slot = (bucket + p) % capacity();
      if (fingerprints_[slot] == Fingerprint(hash) && keys_[slot] == key) {
        return &values_[slot];
      }
    }
    return nullptr;
  }

  std::size_t size() const { return size_; }
  std::uint64_t evictions() const { return evictions_; }
  std::uint64_t wrapped_inserts() const { return wrapped_inserts_; }

 private:
  static constexpr std::size_t kWindow = FlowTable<int>::kProbeWindow;
  static constexpr std::size_t kNone = ~std::size_t{0};

  std::size_t capacity() const { return keys_.size(); }
  // Top log2(capacity) bits of the hash.
  std::size_t Bucket(std::uint64_t hash) const {
    return static_cast<std::size_t>(
        hash / (~std::uint64_t{0} / capacity() + 1));
  }
  static std::uint8_t Fingerprint(std::uint64_t hash) {
    return static_cast<std::uint8_t>(0x80 | (hash & 0x7f));
  }

  std::vector<std::uint8_t> fingerprints_;
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint64_t> epochs_;
  std::vector<int> values_;
  std::uint64_t epoch_ = 0;
  std::size_t size_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t wrapped_inserts_ = 0;
};

// Random FindOrInsert/Find mixes on tables of one and four windows, with
// a key universe several times the capacity so windows fill, evict and
// wrap past the last slot; every returned value, size() and evictions()
// must equal the model's.
TEST(FlowTableTest, MatchesBruteForceModelUnderRandomOps) {
  for (const std::size_t capacity : {std::size_t{16}, std::size_t{64}}) {
    FlowTable<int> table(capacity);
    ReferenceFlowTable model(capacity);
    ASSERT_EQ(table.capacity(), capacity);
    std::mt19937_64 rng(capacity);
    int next_value = 1;
    for (int op = 0; op < 200'000; ++op) {
      const std::uint64_t key = 1 + rng() % (4 * capacity);
      const std::uint64_t hash = FlowTable<int>::HashOf(key);
      if (rng() % 3 == 0) {
        const int* got = table.Find(key, hash);
        const int* want = model.Find(key, hash);
        ASSERT_EQ(got == nullptr, want == nullptr) << "op " << op;
        if (got != nullptr) {
          ASSERT_EQ(*got, *want) << "op " << op;
        }
      } else {
        int* got = table.FindOrInsert(key, hash);
        int* want = model.FindOrInsert(key, hash);
        ASSERT_EQ(*got, *want) << "op " << op;
        *got = *want = next_value++;
      }
      ASSERT_EQ(table.size(), model.size()) << "op " << op;
      ASSERT_EQ(table.evictions(), model.evictions()) << "op " << op;
    }
    EXPECT_GT(model.evictions(), 0u);
    EXPECT_GT(model.wrapped_inserts(), 0u);
  }
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

  FlowTracker sequential(1024);
  FlowTracker batched(1024);
  std::vector<FlowFeatures> expect(kPackets);
  for (std::size_t i = 0; i < kPackets; ++i) {
    sequential.Observe(packets[i]);
    expect[i] = sequential.Features(packets[i].flow_hash);
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

// FNV-1a over the raw bytes of each added value, in order.
class FeatureDigest {
 public:
  void Add(const FlowFeatures& f) {
    Add(f.mean_packet_size_bytes);
    Add(f.mean_interarrival_s);
    Add(f.burstiness);
    Add(f.packets);
  }
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) hash_ = (hash_ ^ b) * 0x100000001b3ULL;
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Golden digest of the features ObserveBatch returns over an
// ingress-zipf-shaped stream: Zipf(1.0) over 2^20 flows into the default
// 16 384-slot table, so probe windows fill, wrap past the last slot and
// evict. Every 997th packet repeats its predecessor's flow and timestamp
// (a zero gap) and every 991st arrives 1 us before its predecessor of
// the same flow (a negative gap, which the estimators skip). The
// constant was recorded with the RunningStats-based tracker and the
// scalar probe loop; the batch-vs-sequential test above runs one
// implementation on both sides, so only this pins the arithmetic.
TEST(FlowTrackerTest, GoldenDigestOfZipfStream) {
  constexpr std::size_t kPackets = 262'144;
  constexpr std::size_t kBatch = 64;
  const traffic::ZipfSampler zipf(std::uint64_t{1} << 20, 1.0);
  analognf::RandomStream rng(1);
  // SplitMix64 finaliser: parsed 5-tuple hashes are well mixed.
  auto mix = [](std::uint64_t x) {
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  };
  std::vector<net::PacketMeta> packets(kPackets);
  double now = 0.0;
  for (std::size_t i = 0; i < kPackets; ++i) {
    net::PacketMeta& p = packets[i];
    now += rng.NextExponential(1.0e6);
    p.id = i;
    p.arrival_time_s = now;
    p.size_bytes = 64 + static_cast<std::uint32_t>(rng.NextIndex(1437));
    p.flow_hash = mix(zipf.Sample(rng) + 1);
    if (i > 0 && i % 997 == 0) {
      p.flow_hash = packets[i - 1].flow_hash;
      p.arrival_time_s = packets[i - 1].arrival_time_s;
    } else if (i > 0 && i % 991 == 0) {
      p.flow_hash = packets[i - 1].flow_hash;
      p.arrival_time_s = packets[i - 1].arrival_time_s - 1e-6;
    }
  }

  FlowTracker tracker;
  std::vector<FlowFeatures> features(kBatch);
  FeatureDigest digest;
  for (std::size_t base = 0; base < kPackets; base += kBatch) {
    tracker.ObserveBatch(packets.data() + base, kBatch, features.data());
    for (const FlowFeatures& f : features) digest.Add(f);
  }
  // Read-only lookups of the hottest ranks and of a never-seen flow.
  for (std::uint64_t rank = 0; rank < 64; ++rank) {
    digest.Add(tracker.Features(mix(rank + 1)));
  }
  digest.Add(tracker.Features(0));
  digest.Add(static_cast<std::uint64_t>(tracker.flows()));
  digest.Add(tracker.evictions());

  EXPECT_GT(tracker.evictions(), 0u);
  EXPECT_EQ(tracker.flows(), tracker.capacity());
  EXPECT_EQ(digest.value(), 0x2551648a78bedaabULL);
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
// the ring hook a steady-state batch allocates and frees nothing. The
// egress queues stay full, so most AQM decisions repeat the previous
// one and are replayed; the replay allocates nothing either.
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
  // AQM pipeline evaluations (one per decision) and replays, summed
  // over every port and class, when counting starts and when it stops.
  struct AqmCounts {
    std::uint64_t decisions = 0;
    std::uint64_t replays = 0;
  };
  auto count_aqm = [&] {
    AqmCounts n;
    for (std::size_t port = 0; port < c.port_count; ++port) {
      for (std::size_t sc = 0; sc < c.service_classes; ++sc) {
        const aqm::AnalogAqm& guard = *group.device(0).port_aqm(port, sc);
        n.decisions += guard.table().pipeline().evaluations();
        n.replays += guard.table().pipeline().replays();
      }
    }
    return n;
  };
  AqmCounts aqm_at_warm;
  AqmCounts aqm_at_end;
  arch::PortRuntime::IngressRing ring(4);
  group.runtime(0).AttachRing(
      &ring, [&](const arch::PortRuntime::RingBatchInfo&) {
        ++batches;
        if (batches == kWarm) {
          aqm_at_warm = count_aqm();
          alloc_probe::count = 0;
          alloc_probe::frees = 0;
          alloc_probe::counting = true;
        } else if (batches == kWarm + kCounted) {
          alloc_probe::counting = false;
          worker_allocs = alloc_probe::count;
          worker_frees = alloc_probe::frees;
          aqm_at_end = count_aqm();
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
  const std::uint64_t decisions = aqm_at_end.decisions - aqm_at_warm.decisions;
  const std::uint64_t replays = aqm_at_end.replays - aqm_at_warm.replays;
  EXPECT_GT(decisions, 0u);
  EXPECT_GT(2 * replays, decisions);
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
