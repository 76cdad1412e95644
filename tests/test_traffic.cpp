// Tests for the src/traffic ingress subsystem: the SPSC ring, the Zipf
// sampler, the storage-free flow population, byte-accurate synthesis
// (differential against net::Parser), arrival processes, traffic
// sources with trace record/replay, the ring-fed PortRuntime mode, and
// the LoadDriver's conservation + determinism contracts.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "analognf/arch/port_runtime.hpp"
#include "analognf/common/spsc_ring.hpp"
#include "analognf/net/parser.hpp"
#include "analognf/traffic/load_driver.hpp"
#include "analognf/traffic/source.hpp"
#include "analognf/traffic/trace.hpp"
#include "analognf/traffic/workload.hpp"
#include "analognf/traffic/zipf.hpp"

namespace {

using namespace analognf;

// ------------------------------------------------------------ SpscRing

// One synthesized frame as an owning packet.
net::Packet SynthesizePacket(const traffic::FlowTuple& tuple,
                             std::uint32_t frame_bytes) {
  std::vector<std::uint8_t> bytes;
  traffic::SynthesizeFrame(tuple, frame_bytes, bytes);
  return net::Packet(std::move(bytes));
}

TEST(SpscRingTest, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> tiny(0);
  EXPECT_EQ(tiny.capacity(), 2u);
  SpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  SpscRing<int> exact(16);
  EXPECT_EQ(exact.capacity(), 16u);
}

TEST(SpscRingTest, PushPopSingleThreadFifo) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.Empty());
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.TryPush(i));
  int full = 99;
  EXPECT_FALSE(ring.TryPush(full));
  EXPECT_EQ(full, 99);  // intact on failure
  for (int i = 0; i < 4; ++i) {
    int out = -1;
    EXPECT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ring.TryPop(out));
  EXPECT_TRUE(ring.Empty());
}

TEST(SpscRingTest, WrapAroundKeepsOrder) {
  SpscRing<int> ring(4);
  int out = -1;
  for (int i = 0; i < 100; ++i) {
    EXPECT_TRUE(ring.TryPush(i));
    EXPECT_TRUE(ring.TryPop(out));
    EXPECT_EQ(out, i);
  }
}

TEST(SpscRingTest, MoveOnlyPayload) {
  SpscRing<std::unique_ptr<int>> ring(2);
  auto p = std::make_unique<int>(42);
  EXPECT_TRUE(ring.TryPush(std::move(p)));
  std::unique_ptr<int> out;
  EXPECT_TRUE(ring.TryPop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 42);

  // Pop exchanges: the popped-into pointer's old value goes back into
  // the slot, and the producer's next push into that slot destroys it.
  std::vector<int> destroyed;
  struct Logged {
    std::vector<int>* log;
    void operator()(int* v) const {
      log->push_back(*v);
      delete v;
    }
  };
  using Ptr = std::unique_ptr<int, Logged>;
  auto make = [&destroyed](int v) {
    return Ptr(new int(v), Logged{&destroyed});
  };
  SpscRing<Ptr> logged(2);
  EXPECT_TRUE(logged.TryPush(make(1)));  // slot 0
  Ptr held = make(7);
  EXPECT_TRUE(logged.TryPop(held));
  EXPECT_EQ(*held, 1);
  EXPECT_TRUE(destroyed.empty());  // 7 is parked in slot 0, not freed
  EXPECT_TRUE(logged.TryPush(make(2)));  // slot 1: held nothing
  EXPECT_TRUE(destroyed.empty());
  EXPECT_TRUE(logged.TryPush(make(3)));  // slot 0: destroys the 7
  EXPECT_EQ(destroyed, std::vector<int>{7});
}

// The TSan target: one producer, one consumer, every value handed over
// exactly once and in order. The payload owns heap memory, so the
// exchange on pop (the consumer's spent value goes back into the slot
// and the producer destroys it on its next push) runs the same
// cross-thread path the port worker does.
TEST(SpscRingTest, TwoThreadHandoff) {
  constexpr std::uint64_t kCount = 200'000;
  SpscRing<std::vector<std::uint64_t>> ring(64);
  std::uint64_t received = 0;
  std::uint64_t sum = 0;
  std::thread consumer([&] {
    std::vector<std::uint64_t> item;
    while (received < kCount) {
      if (!ring.TryPop(item)) {
        std::this_thread::yield();
        continue;
      }
      EXPECT_EQ(item.size(), 1u);
      for (const std::uint64_t v : item) {
        EXPECT_EQ(v, received);
        sum += v;
      }
      ++received;
    }
  });
  for (std::uint64_t v = 0; v < kCount; ++v) {
    std::vector<std::uint64_t> item{v};
    while (!ring.TryPush(item)) std::this_thread::yield();
  }
  consumer.join();
  EXPECT_EQ(received, kCount);
  EXPECT_EQ(sum, kCount * (kCount - 1) / 2);
}

// ------------------------------------------------------------- Zipf

TEST(ZipfSamplerTest, RejectsBadArguments) {
  EXPECT_THROW(traffic::ZipfSampler(0, 1.0), std::invalid_argument);
  EXPECT_THROW(traffic::ZipfSampler(10, -0.5), std::invalid_argument);
}

TEST(ZipfSamplerTest, DeterministicAcrossInstances) {
  traffic::ZipfSampler a(1000, 1.2);
  traffic::ZipfSampler b(1000, 1.2);
  RandomStream ra(7), rb(7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.Sample(ra), b.Sample(rb));
}

TEST(ZipfSamplerTest, SZeroIsUniform) {
  traffic::ZipfSampler z(100, 0.0);
  RandomStream rng(3);
  std::vector<int> counts(100, 0);
  constexpr int kSamples = 100'000;
  for (int i = 0; i < kSamples; ++i) ++counts[z.Sample(rng)];
  for (int c : counts) {
    EXPECT_NEAR(c, kSamples / 100, 250);  // ~8 sigma
  }
}

TEST(ZipfSamplerTest, EmpiricalFrequenciesMatchProbabilities) {
  traffic::ZipfSampler z(1000, 1.0);
  RandomStream rng(11);
  constexpr int kSamples = 200'000;
  std::vector<int> counts(1000, 0);
  for (int i = 0; i < kSamples; ++i) ++counts[z.Sample(rng)];
  // Zipf(1.0) over 1000 ranks: P(k) = (k + 1)^-1 / H_1000.
  double harmonic = 0.0;
  for (int i = 1; i <= 1000; ++i) harmonic += 1.0 / i;
  // Top ranks carry enough mass for tight relative checks.
  for (std::uint64_t k = 0; k < 5; ++k) {
    const double expected =
        kSamples / (static_cast<double>(k + 1) * harmonic);
    EXPECT_NEAR(counts[k], expected, 5.0 * std::sqrt(expected))
        << "rank " << k;
  }
  // Monotone popularity: rank 0 strictly dominates rank 9.
  EXPECT_GT(counts[0], counts[9]);
}

TEST(ZipfSamplerTest, MillionFlowPopulationStaysInRange) {
  const std::uint64_t n = 1u << 20;
  traffic::ZipfSampler z(n, 1.0);
  RandomStream rng(13);
  std::uint64_t rank0 = 0;
  for (int i = 0; i < 50'000; ++i) {
    const std::uint64_t k = z.Sample(rng);
    ASSERT_LT(k, n);
    if (k == 0) ++rank0;
  }
  // P(rank 0) = 1/H(2^20) ~ 6.9%; far above uniform 1/2^20.
  EXPECT_GT(rank0, 2000u);
}

// ------------------------------------------------------ FlowPopulation

TEST(FlowPopulationTest, TuplesAreStableAndDistinct) {
  traffic::PopulationConfig config;
  config.flows = 1u << 20;
  traffic::FlowPopulation a(config), b(config);
  for (std::uint64_t f : {0ull, 1ull, 12345ull, (1ull << 20) - 1}) {
    const traffic::FlowTuple ta = a.Tuple(f), tb = b.Tuple(f);
    EXPECT_EQ(ta.src_ip, tb.src_ip);
    EXPECT_EQ(ta.dst_ip, tb.dst_ip);
    EXPECT_EQ(ta.src_port, tb.src_port);
    EXPECT_EQ(ta.dst_port, tb.dst_port);
    EXPECT_EQ(ta.protocol, tb.protocol);
    EXPECT_EQ(ta.dscp, tb.dscp);
    EXPECT_EQ(ta.ect, tb.ect);
  }
  EXPECT_NE(a.Tuple(0).src_ip, a.Tuple(1).src_ip);
}

TEST(FlowPopulationTest, TraitFractionsMatchConfig) {
  traffic::PopulationConfig config;
  config.flows = 40'000;
  config.udp_fraction = 0.8;
  config.ect_fraction = 0.5;
  config.high_priority_fraction = 0.25;
  traffic::FlowPopulation pop(config);
  int udp = 0, ect = 0, high = 0;
  for (std::uint64_t f = 0; f < config.flows; ++f) {
    const traffic::FlowTuple t = pop.Tuple(f);
    if (t.protocol == net::kIpProtoUdp) ++udp;
    if (t.ect) ++ect;
    if ((t.dscp >> 3) >= 4) ++high;
    EXPECT_EQ(t.dst_port, t.protocol == net::kIpProtoUdp ? 53 : 443);
    EXPECT_GE(t.dst_ip, config.dst_base);
    EXPECT_LT(t.dst_ip, config.dst_base + config.dst_hosts);
  }
  const auto n = static_cast<double>(config.flows);
  EXPECT_NEAR(udp / n, 0.8, 0.02);
  EXPECT_NEAR(ect / n, 0.5, 0.02);
  EXPECT_NEAR(high / n, 0.25, 0.02);
}

TEST(FlowPopulationTest, ValidateRejectsBadConfig) {
  traffic::PopulationConfig config;
  config.flows = 0;
  EXPECT_THROW(traffic::FlowPopulation{config}, std::invalid_argument);
  config.flows = 8;
  config.udp_fraction = 1.5;
  EXPECT_THROW(traffic::FlowPopulation{config}, std::invalid_argument);
}

// ---------------------------------------------------- frame synthesis

// Differential test: synthesized bytes must parse cleanly (checksum
// verified) and reproduce the tuple bit-exactly.
TEST(SynthesizeFrameTest, ParsesBackToTheTuple) {
  traffic::PopulationConfig config;
  config.flows = 512;
  traffic::FlowPopulation pop(config);
  net::Parser parser;  // checksum verification on
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t f = 0; f < config.flows; ++f) {
    const traffic::FlowTuple t = pop.Tuple(f);
    for (std::uint32_t size : {0u, 64u, 576u, 1500u}) {
      traffic::SynthesizeFrame(t, size, bytes);
      const net::ParsedPacket parsed = parser.Parse(bytes.data(),
                                                    bytes.size());
      ASSERT_TRUE(parsed.ok()) << static_cast<int>(parsed.error);
      ASSERT_TRUE(parsed.ipv4.has_value());
      EXPECT_EQ(parsed.ipv4->src_ip, t.src_ip);
      EXPECT_EQ(parsed.ipv4->dst_ip, t.dst_ip);
      EXPECT_EQ(parsed.ipv4->protocol, t.protocol);
      EXPECT_EQ(parsed.ipv4->dscp, t.dscp);
      EXPECT_EQ(parsed.ipv4->ecn, t.ect ? 2 : 0);
      const net::FiveTuple key = parsed.Key();
      EXPECT_EQ(key.src_port, t.src_port);
      EXPECT_EQ(key.dst_port, t.dst_port);
      // Exact frame length (clamped up to the headers' minimum).
      const std::uint32_t l4 = t.protocol == net::kIpProtoTcp
                                   ? net::TcpHeader::kSize
                                   : net::UdpHeader::kSize;
      const std::uint32_t min_bytes =
          net::EthernetHeader::kSize + net::Ipv4Header::kSize + l4;
      EXPECT_EQ(bytes.size(), std::max(size, min_bytes));
    }
  }
}

TEST(SynthesizeFrameTest, DeterministicBytes) {
  traffic::FlowPopulation pop(traffic::PopulationConfig{});
  const traffic::FlowTuple t = pop.Tuple(77);
  std::vector<std::uint8_t> a, b;
  traffic::SynthesizeFrame(t, 256, a);
  traffic::SynthesizeFrame(t, 256, b);
  EXPECT_EQ(a, b);
}

// ---------------------------------------------------------- trace

TEST(TraceTest, RoundTripsBitExactly) {
  traffic::Trace trace;
  trace.population.flows = 1u << 16;
  trace.population.seed = 0xabcdef;
  trace.records.push_back({1.0 / 3.0, 42, 64});
  trace.records.push_back({0x1.fffffffffffffp-1, 65535, 1500});
  trace.records.push_back({2.0000000000000004, 7, 576});

  std::stringstream buffer;
  traffic::WriteTrace(buffer, trace);
  const traffic::Trace back = traffic::ReadTrace(buffer);

  EXPECT_EQ(back.population.flows, trace.population.flows);
  EXPECT_EQ(back.population.seed, trace.population.seed);
  ASSERT_EQ(back.records.size(), trace.records.size());
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    // Bit-pattern equality, stricter than ==.
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &trace.records[i].arrival_s, 8);
    std::memcpy(&b, &back.records[i].arrival_s, 8);
    EXPECT_EQ(a, b);
    EXPECT_EQ(back.records[i].flow, trace.records[i].flow);
    EXPECT_EQ(back.records[i].frame_bytes, trace.records[i].frame_bytes);
  }
}

// Byte offsets in the "ANFT" v1 layout: a 56-byte header, the record
// count, then 20-byte records {arrival f64, flow u64, frame_bytes u32}.
constexpr std::size_t kTraceFlowsAt = 8;
constexpr std::size_t kTraceCountAt = 56;
constexpr std::size_t kTraceRecordsAt = 64;

void PokeU64(std::string& bytes, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    bytes[at + static_cast<std::size_t>(i)] = static_cast<char>(v >> (8 * i));
  }
}

void PokeF64(std::string& bytes, std::size_t at, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  PokeU64(bytes, at, bits);
}

std::string TraceBytes(std::size_t records) {
  traffic::Trace trace;
  trace.population.flows = 64;
  for (std::size_t i = 0; i < records; ++i) {
    trace.records.push_back({0.001 * static_cast<double>(i), i % 64,
                             static_cast<std::uint32_t>(64 + i)});
  }
  std::stringstream buffer;
  traffic::WriteTrace(buffer, trace);
  return buffer.str();
}

// A stream that cannot seek, so ReadTrace cannot measure what is left.
class OneWayBuf : public std::streambuf {
 public:
  explicit OneWayBuf(std::string bytes) : bytes_(std::move(bytes)) {
    setg(bytes_.data(), bytes_.data(), bytes_.data() + bytes_.size());
  }

 private:
  std::string bytes_;
};

// ReadTrace's contract on hostile input: a trace or std::runtime_error,
// from a seekable and from a one-way stream alike. Anything else
// (bad_alloc, length_error, invalid_argument, a crash) fails the caller.
void ParseOrReject(const std::string& bytes) {
  std::stringstream seekable(bytes);
  try {
    traffic::ReadTrace(seekable);
  } catch (const std::runtime_error&) {
  }
  OneWayBuf buf(bytes);
  std::istream one_way(&buf);
  try {
    traffic::ReadTrace(one_way);
  } catch (const std::runtime_error&) {
  }
}

TEST(TraceTest, RejectsCorruptInput) {
  std::stringstream empty;
  EXPECT_THROW(traffic::ReadTrace(empty), std::runtime_error);

  traffic::Trace trace;
  trace.records.push_back({0.5, 1, 64});
  std::stringstream buffer;
  traffic::WriteTrace(buffer, trace);
  std::string bytes = buffer.str();
  bytes[0] = static_cast<char>(bytes[0] ^ 0x7f);  // break the magic
  std::stringstream bad(bytes);
  EXPECT_THROW(traffic::ReadTrace(bad), std::runtime_error);

  std::stringstream truncated(buffer.str().substr(0, 40));
  EXPECT_THROW(traffic::ReadTrace(truncated), std::runtime_error);

  // A corrupt count fails as truncation, never as bad_alloc or
  // length_error, whether or not the stream can seek.
  const std::string valid = TraceBytes(3);
  for (std::uint64_t count : {std::uint64_t{4}, std::uint64_t{1} << 59,
                              ~std::uint64_t{0}}) {
    SCOPED_TRACE(count);
    std::string corrupt = valid;
    PokeU64(corrupt, kTraceCountAt, count);
    std::stringstream seekable(corrupt);
    EXPECT_THROW(traffic::ReadTrace(seekable), std::runtime_error);
    OneWayBuf buf(corrupt);
    std::istream one_way(&buf);
    EXPECT_THROW(traffic::ReadTrace(one_way), std::runtime_error);
  }

  std::string no_flows = valid;
  PokeU64(no_flows, kTraceFlowsAt, 0);
  std::stringstream bad_header(no_flows);
  EXPECT_THROW(traffic::ReadTrace(bad_header), std::runtime_error);

  const double kBadArrivals[] = {std::nan(""), HUGE_VAL, -HUGE_VAL};
  for (double arrival : kBadArrivals) {
    std::string corrupt = valid;
    PokeF64(corrupt, kTraceRecordsAt + 20, arrival);
    std::stringstream in(corrupt);
    EXPECT_THROW(traffic::ReadTrace(in), std::runtime_error) << arrival;
  }
  std::string decreasing = valid;
  PokeF64(decreasing, kTraceRecordsAt + 40, 0.0005);  // before record 1
  std::stringstream in(decreasing);
  EXPECT_THROW(traffic::ReadTrace(in), std::runtime_error);

  // Equal arrival times are ordered; the unmodified trace parses.
  std::string ties = valid;
  PokeF64(ties, kTraceRecordsAt + 20, 0.0);
  std::stringstream tied(ties);
  EXPECT_EQ(traffic::ReadTrace(tied).records.size(), 3u);
  OneWayBuf buf(valid);
  std::istream one_way(&buf);
  EXPECT_EQ(traffic::ReadTrace(one_way).records.size(), 3u);
}

// Property: ReadTrace never crashes, over-allocates or throws anything
// but std::runtime_error on random garbage and on truncated or
// bit-flipped valid traces.
class TraceGarbageFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TraceGarbageFuzz, GarbageNeverCrashes) {
  RandomStream rng(GetParam());
  const std::string header = TraceBytes(0).substr(0, 8);  // magic+version
  for (int iter = 0; iter < 500; ++iter) {
    // Half the inputs get a valid magic and version so that the garbage
    // reaches the header fields, the count and the records.
    std::string bytes = iter % 2 == 0 ? header : std::string();
    const auto len = static_cast<std::size_t>(rng.NextIndex(200));
    for (std::size_t i = 0; i < len; ++i) {
      bytes.push_back(static_cast<char>(rng.NextIndex(256)));
    }
    EXPECT_NO_THROW(ParseOrReject(bytes));
  }
}

TEST_P(TraceGarbageFuzz, TruncationsAndBitFlipsNeverCrash) {
  RandomStream rng(GetParam() ^ 0x7777);
  const std::string valid = TraceBytes(8);
  for (std::size_t cut = 0; cut < valid.size(); ++cut) {
    std::stringstream in(valid.substr(0, cut));
    EXPECT_THROW(traffic::ReadTrace(in), std::runtime_error) << cut;
  }
  for (int iter = 0; iter < 300; ++iter) {
    std::string copy = valid;
    const auto pos = static_cast<std::size_t>(rng.NextIndex(copy.size()));
    copy[pos] = static_cast<char>(copy[pos] ^ (1 << rng.NextIndex(8)));
    EXPECT_NO_THROW(ParseOrReject(copy));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TraceGarbageFuzz, ::testing::Values(7, 8, 9));

// ----------------------------------------------------- TrafficSource

traffic::WorkloadConfig SmallWorkload() {
  traffic::WorkloadConfig w;
  w.population.flows = 1u << 16;
  w.arrivals.rate_pps = 1.0e6;
  return w;
}

TEST(TrafficSourceTest, LiveBatchesAreOrderedAndSized) {
  traffic::TrafficSource src = traffic::TrafficSource::Live(SmallWorkload());
  std::vector<net::Packet> packets;
  double now_s = 0.0;
  double prev = 0.0;
  for (int b = 0; b < 10; ++b) {
    packets.clear();
    EXPECT_EQ(src.NextBatch(32, packets, now_s), 32u);
    EXPECT_EQ(packets.size(), 32u);
    EXPECT_GT(now_s, prev);
    prev = now_s;
  }
  EXPECT_EQ(src.emitted(), 320u);
}

TEST(TrafficSourceTest, RecordThenReplayIsByteIdentical) {
  traffic::Trace trace;
  traffic::TrafficSource live = traffic::TrafficSource::Live(SmallWorkload());
  live.RecordTo(&trace);

  std::vector<net::Packet> live_packets;
  std::vector<double> live_clocks;
  double now_s = 0.0;
  for (int b = 0; b < 8; ++b) {
    ASSERT_EQ(live.NextBatch(16, live_packets, now_s), 16u);
    live_clocks.push_back(now_s);
  }
  ASSERT_EQ(trace.records.size(), live_packets.size());

  traffic::TrafficSource replay = traffic::TrafficSource::Replay(trace);
  std::vector<net::Packet> replayed;
  for (int b = 0; b < 8; ++b) {
    ASSERT_EQ(replay.NextBatch(16, replayed, now_s), 16u);
    EXPECT_EQ(now_s, live_clocks[static_cast<std::size_t>(b)]);
  }
  // Past the end: exhausted.
  EXPECT_EQ(replay.NextBatch(16, replayed, now_s), 0u);

  ASSERT_EQ(replayed.size(), live_packets.size());
  for (std::size_t i = 0; i < replayed.size(); ++i) {
    EXPECT_EQ(replayed[i].bytes(), live_packets[i].bytes()) << "packet " << i;
  }
}

// ----------------------------------------------- PortRuntime ring mode

arch::SwitchConfig RingTestSwitchConfig() {
  arch::SwitchConfig c;
  c.port_count = 2;
  c.port_rate_bps = 100.0e9;
  c.service_classes = 2;
  return c;
}

std::vector<std::vector<net::Packet>> RingTestBatches(std::size_t batches,
                                                      std::size_t size) {
  traffic::PopulationConfig pc;
  pc.flows = 4096;
  traffic::FlowPopulation pop(pc);
  RandomStream rng(0xba7c);
  std::vector<std::vector<net::Packet>> out(batches);
  for (auto& batch : out) {
    batch.reserve(size);
    for (std::size_t i = 0; i < size; ++i) {
      batch.push_back(SynthesizePacket(
          pop.Tuple(rng.NextIndex(pc.flows)),
          static_cast<std::uint32_t>(64 + rng.NextIndex(512))));
    }
  }
  return out;
}

void InstallRingTestTables(arch::SwitchGroup& group) {
  group.AddFirewallRule(arch::FirewallPattern{}, true, 0);
  for (std::uint32_t h = 0; h < 256; ++h) {
    group.AddRoute(0x0a000000u + h, 32, h % 2);
  }
  group.Commit();
}

bool SameStats(const arch::SwitchStats& a, const arch::SwitchStats& b) {
  return a.injected == b.injected && a.forwarded == b.forwarded &&
         a.parse_errors == b.parse_errors &&
         a.firewall_denies == b.firewall_denies && a.no_route == b.no_route &&
         a.aqm_drops == b.aqm_drops && a.queue_full == b.queue_full &&
         a.delivered == b.delivered;
}

// Ring-fed processing must be bit-identical to Submit() of the same
// batches onto the port's own ring: an attached ring changes who
// produces the batches, not the data plane.
TEST(PortRuntimeRingTest, RingFedMatchesSubmit) {
  const auto batches = RingTestBatches(32, 16);

  arch::SwitchGroup via_submit(1, RingTestSwitchConfig());
  InstallRingTestTables(via_submit);
  double now_s = 0.0;
  for (const auto& batch : batches) {
    via_submit.Submit(0, batch, now_s);
    now_s += 1.0e-5;
  }
  via_submit.WaitIdle();

  arch::SwitchGroup via_ring(1, RingTestSwitchConfig());
  InstallRingTestTables(via_ring);
  arch::PortRuntime::IngressRing ring(8);
  std::atomic<std::uint64_t> hook_packets{0};
  via_ring.runtime(0).AttachRing(
      &ring, [&](const arch::PortRuntime::RingBatchInfo& info) {
        hook_packets.fetch_add(info.packets, std::memory_order_relaxed);
        EXPECT_GE(info.done_ns, info.start_ns);
      });
  now_s = 0.0;
  for (const auto& batch : batches) {
    arch::PortRuntime::Batch item;
    item.packets = batch;
    item.now_s = now_s;
    while (!ring.TryPush(item)) std::this_thread::yield();
    now_s += 1.0e-5;
  }
  while (!ring.Empty()) std::this_thread::yield();
  via_ring.runtime(0).DetachRing();

  EXPECT_EQ(hook_packets.load(), 32u * 16u);
  EXPECT_TRUE(SameStats(via_ring.device(0).stats(),
                        via_submit.device(0).stats()));
  EXPECT_EQ(via_ring.device(0).ledger().TotalJ(),
            via_submit.device(0).ledger().TotalJ());
}

// Commands queued while a ring is attached still execute (the worker
// runs due commands at every batch boundary, ahead of the next ring
// batch), and detach/reattach cycles work.
TEST(PortRuntimeRingTest, CommandsAndReattachDuringRingMode) {
  arch::SwitchGroup group(1, RingTestSwitchConfig());
  InstallRingTestTables(group);
  const auto batches = RingTestBatches(8, 8);

  arch::PortRuntime::IngressRing ring(4);
  group.runtime(0).AttachRing(&ring);
  std::atomic<int> commands_ran{0};
  double now_s = 0.0;
  for (const auto& batch : batches) {
    arch::PortRuntime::Batch item;
    item.packets = batch;
    item.now_s = now_s;
    while (!ring.TryPush(item)) std::this_thread::yield();
    group.runtime(0).Apply([&commands_ran](arch::CognitiveSwitch&) {
      commands_ran.fetch_add(1, std::memory_order_relaxed);
    });
    now_s += 1.0e-5;
  }
  while (!ring.Empty()) std::this_thread::yield();
  group.runtime(0).DetachRing();
  EXPECT_EQ(commands_ran.load(), 8);

  // Submit feeds the port's own ring again after detach...
  group.Submit(0, batches.front(), now_s);
  group.WaitIdle();
  // ...and the ring can be re-attached.
  group.runtime(0).AttachRing(&ring);
  arch::PortRuntime::Batch item;
  item.packets = batches.back();
  item.now_s = now_s + 1.0e-5;
  while (!ring.TryPush(item)) std::this_thread::yield();
  while (!ring.Empty()) std::this_thread::yield();
  group.runtime(0).DetachRing();
  EXPECT_EQ(group.device(0).stats().injected, 8u * 8u + 8u + 8u);
}

// Control-plane commits racing ring-fed ingress across every port: the
// TSan stress for snapshot publication + SPSC handoff together.
TEST(SwitchGroupRingTest, CommitChurnUnderRingLoad) {
  constexpr std::size_t kPorts = 2;
  arch::SwitchGroup group(kPorts, RingTestSwitchConfig());
  InstallRingTestTables(group);

  std::vector<std::unique_ptr<arch::PortRuntime::IngressRing>> rings;
  for (std::size_t p = 0; p < kPorts; ++p) {
    rings.push_back(std::make_unique<arch::PortRuntime::IngressRing>(8));
    group.runtime(p).AttachRing(rings[p].get());
  }

  std::vector<std::thread> producers;
  for (std::size_t p = 0; p < kPorts; ++p) {
    producers.emplace_back([&, p] {
      const auto batches = RingTestBatches(24, 8);
      double now_s = 0.0;
      for (const auto& batch : batches) {
        arch::PortRuntime::Batch item;
        item.packets = batch;
        item.now_s = now_s;
        while (!rings[p]->TryPush(item)) std::this_thread::yield();
        now_s += 1.0e-5;
      }
    });
  }
  // Controller thread: route churn with commits while ports consume.
  std::thread controller([&] {
    for (int i = 0; i < 50; ++i) {
      const std::size_t idx =
          group.AddRoute(0x0b000000u + static_cast<std::uint32_t>(i), 32, 0);
      group.Commit();
      group.WithdrawRoute(idx);
      group.Commit();
    }
  });
  for (auto& t : producers) t.join();
  controller.join();
  for (std::size_t p = 0; p < kPorts; ++p) {
    while (!rings[p]->Empty()) std::this_thread::yield();
    group.runtime(p).DetachRing();
  }
  arch::SwitchStats total = group.AggregateStats();
  EXPECT_EQ(total.injected, kPorts * 24u * 8u);
}

// -------------------------------------------------------- LoadDriver

traffic::LoadDriverConfig SmallDriverConfig() {
  traffic::LoadDriverConfig c;
  c.ports = 2;
  c.switch_config = RingTestSwitchConfig();
  c.workload = SmallWorkload();
  c.packets_per_port = 4000;
  c.batch_size = 32;
  c.ring_capacity = 16;
  return c;
}

TEST(LoadDriverTest, ValidateRejectsBadConfig) {
  traffic::LoadDriverConfig c = SmallDriverConfig();
  c.ports = 0;
  EXPECT_THROW(traffic::LoadDriver{c}, std::invalid_argument);
  c = SmallDriverConfig();
  c.batch_size = 0;
  EXPECT_THROW(traffic::LoadDriver{c}, std::invalid_argument);
}

TEST(LoadDriverTest, OfferedEqualsAchievedPlusDroppedExactly) {
  traffic::LoadDriverConfig config = SmallDriverConfig();
  config.ring_capacity = 2;  // tiny ring: force drop pressure
  config.overflow = traffic::LoadDriverConfig::Overflow::kDropBatch;
  traffic::LoadDriver driver(config);
  const traffic::LoadReport report = driver.Run();

  EXPECT_EQ(report.offered_packets,
            config.ports * config.packets_per_port);
  EXPECT_EQ(report.offered_packets,
            report.achieved_packets + report.dropped_packets);
  std::uint64_t injected = 0;
  for (const traffic::PortLoadStats& ps : report.ports) {
    EXPECT_EQ(ps.offered_packets, ps.achieved_packets + ps.dropped_packets);
    // Batches are conserved too: each offered batch either reached the
    // worker or was dropped whole.
    EXPECT_EQ(ps.offered_batches, ps.achieved_batches + ps.dropped_batches);
    // Every achieved packet went through the switch, none were invented.
    EXPECT_EQ(ps.stats.injected, ps.achieved_packets);
    EXPECT_GT(ps.model_time_s, 0.0);
    injected += ps.stats.injected;
  }
  EXPECT_EQ(report.stats.injected, injected);
  EXPECT_GT(report.energy_j, 0.0);
}

TEST(LoadDriverTest, BlockModeDropsNothing) {
  traffic::LoadDriverConfig config = SmallDriverConfig();
  config.ring_capacity = 2;
  config.overflow = traffic::LoadDriverConfig::Overflow::kBlock;
  traffic::LoadDriver driver(config);
  const traffic::LoadReport report = driver.Run();
  EXPECT_EQ(report.dropped_packets, 0u);
  EXPECT_EQ(report.achieved_packets, report.offered_packets);
  for (const traffic::PortLoadStats& ps : report.ports) {
    EXPECT_GT(ps.p50_batch_ns, 0.0);
    EXPECT_GE(ps.p99_batch_ns, ps.p50_batch_ns);
  }
}

// The sojourn quantiles are exact order statistics of the recorded
// batches: with one batch per port, p50 and p99 both equal its sojourn,
// which is also the whole sum of the port's ingress.batch_ns histogram.
TEST(LoadDriverTest, SingleBatchSojournQuantilesAreExact) {
  traffic::LoadDriverConfig config = SmallDriverConfig();
  config.packets_per_port = config.batch_size;
  config.overflow = traffic::LoadDriverConfig::Overflow::kBlock;
  std::vector<double> histogram_sums;
  config.inspect = [&histogram_sums](arch::SwitchGroup& group,
                                     const traffic::LoadReport&) {
    for (std::size_t p = 0; p < group.ports(); ++p) {
      for (const telemetry::HistogramSample& h :
           group.device(p).telemetry().metrics().Snapshot().histograms) {
        if (h.name == "ingress.batch_ns") histogram_sums.push_back(h.sum);
      }
    }
  };
  traffic::LoadDriver driver(config);
  const traffic::LoadReport report = driver.Run();
  ASSERT_EQ(histogram_sums.size(), report.ports.size());
  for (std::size_t p = 0; p < report.ports.size(); ++p) {
    const traffic::PortLoadStats& ps = report.ports[p];
    EXPECT_EQ(ps.achieved_batches, 1u);
    EXPECT_EQ(ps.p50_batch_ns, histogram_sums[p]);
    EXPECT_EQ(ps.p99_batch_ns, histogram_sums[p]);
  }
}

// The tentpole determinism contract: a recorded live run and its replay
// produce bit-identical verdict partitions and energy ledgers.
TEST(LoadDriverTest, ReplayMatchesLiveRun) {
  traffic::LoadDriverConfig config = SmallDriverConfig();
  config.overflow = traffic::LoadDriverConfig::Overflow::kBlock;
  traffic::LoadDriver driver(config);

  std::vector<traffic::Trace> traces;
  const traffic::LoadReport live = driver.Run(&traces);
  ASSERT_EQ(traces.size(), config.ports);
  for (const traffic::Trace& t : traces) {
    EXPECT_EQ(t.records.size(), config.packets_per_port);
  }

  // Round-trip the traces through serialization, as a tool would.
  std::vector<traffic::Trace> reloaded;
  for (const traffic::Trace& t : traces) {
    std::stringstream buffer;
    traffic::WriteTrace(buffer, t);
    reloaded.push_back(traffic::ReadTrace(buffer));
  }

  const traffic::LoadReport replay = driver.RunReplay(reloaded);
  ASSERT_EQ(replay.ports.size(), live.ports.size());
  EXPECT_EQ(replay.offered_packets, live.offered_packets);
  for (std::size_t p = 0; p < live.ports.size(); ++p) {
    EXPECT_TRUE(SameStats(replay.ports[p].stats, live.ports[p].stats))
        << "port " << p;
    EXPECT_EQ(replay.ports[p].energy_j, live.ports[p].energy_j)
        << "port " << p;
    EXPECT_EQ(replay.ports[p].model_time_s, live.ports[p].model_time_s);
  }
  EXPECT_EQ(replay.energy_j, live.energy_j);
}

TEST(LoadDriverTest, IngressTelemetryCountersMatchReport) {
  // Each port's registry and recorder have one writer at a time: the
  // worker during the run (switch.* counters, the flight recorder, the
  // ingress.batch_ns hook histogram), then the driver thread after the
  // rings are detached (the authoritative ingress.* counts). Every count
  // must survive that handoff exactly, on every port. The inspect
  // callback sees the still-alive group after the report is assembled.
  traffic::LoadDriverConfig config = SmallDriverConfig();
  ASSERT_EQ(config.ports, 2u);
  config.overflow = traffic::LoadDriverConfig::Overflow::kBlock;
  bool inspected = false;
  config.inspect = [&inspected](arch::SwitchGroup& group,
                                const traffic::LoadReport& report) {
    inspected = true;
    for (std::size_t p = 0; p < group.ports(); ++p) {
      SCOPED_TRACE("port " + std::to_string(p));
      const traffic::PortLoadStats& ps = report.ports[p];
      const telemetry::Telemetry& hub = group.device(p).telemetry();
      const telemetry::MetricsSnapshot snap = hub.metrics().Snapshot();
      std::map<std::string, std::uint64_t> counters;
      for (const telemetry::CounterSample& c : snap.counters) {
        counters[c.name] = c.value;
      }
      EXPECT_EQ(counters.at("ingress.offered_packets"), ps.offered_packets);
      EXPECT_EQ(counters.at("ingress.achieved_packets"),
                ps.achieved_packets);
      EXPECT_EQ(counters.at("ingress.dropped_packets"), 0u);
      // Worker-written verdict counters mirror the port's stats.
      const arch::SwitchStats& stats = group.device(p).stats();
      EXPECT_EQ(counters.at("switch.injected"), stats.injected);
      EXPECT_EQ(counters.at("switch.forwarded"), stats.forwarded);
      EXPECT_EQ(counters.at("switch.aqm_drops"), stats.aqm_drops);
      EXPECT_EQ(counters.at("switch.queue_full"), stats.queue_full);
      EXPECT_EQ(hub.recorder().recorded(), ps.achieved_batches);
      // The worker-fed sojourn histogram saw every batch exactly once.
      bool found_hist = false;
      for (const telemetry::HistogramSample& h : snap.histograms) {
        if (h.name == "ingress.batch_ns") {
          found_hist = true;
          EXPECT_EQ(h.count, ps.achieved_batches);
        }
      }
      EXPECT_TRUE(found_hist);
    }
  };

  traffic::LoadDriver driver(config);
  const traffic::LoadReport report = driver.Run();
  EXPECT_TRUE(inspected);
  ASSERT_EQ(report.ports.size(), 2u);
  for (const traffic::PortLoadStats& ps : report.ports) {
    EXPECT_EQ(ps.offered_packets, config.packets_per_port);
    EXPECT_EQ(ps.achieved_batches, ps.offered_batches);
  }
  EXPECT_GT(report.achieved_mpps, 0.0);
  EXPECT_GT(report.wall_s, 0.0);
}

}  // namespace
