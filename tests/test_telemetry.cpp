// Tests for the telemetry subsystem: the metrics registry,
// the flight recorder, both exporters (including the Prometheus/JSON
// differential round-trip), and the data-plane integration — notably
// that a disabled TelemetryConfig produces zero metric writes while the
// data plane's verdicts stay bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analognf/arch/stages.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/net/packet.hpp"
#include "analognf/telemetry/export.hpp"
#include "analognf/telemetry/flight_recorder.hpp"
#include "analognf/telemetry/metrics.hpp"
#include "analognf/telemetry/telemetry.hpp"

namespace analognf {
namespace {

using telemetry::BatchTraceRecord;
using telemetry::FlightRecorder;
using telemetry::HistogramSpec;
using telemetry::MetricsRegistry;
using telemetry::MetricsSnapshot;
using telemetry::TelemetryConfig;

std::optional<std::uint64_t> FindCounter(const MetricsSnapshot& snap,
                                         const std::string& name) {
  for (const auto& c : snap.counters) {
    if (c.name == name) return c.value;
  }
  return std::nullopt;
}

std::uint64_t CounterValue(const MetricsSnapshot& snap,
                           const std::string& name) {
  const auto value = FindCounter(snap, name);
  EXPECT_TRUE(value.has_value()) << "counter not registered: " << name;
  return value.value_or(0);
}

// ------------------------------------------------------------- registry

TEST(MetricsRegistryTest, FindOrCreateAliasesTheSameMetric) {
  MetricsRegistry registry;
  auto a = registry.GetCounter("x");
  auto b = registry.GetCounter("x");
  a.Inc(2);
  b.Inc(3);
  EXPECT_EQ(CounterValue(registry.Snapshot(), "x"), 5u);
  EXPECT_EQ(registry.Snapshot().counters.size(), 1u);
}

TEST(MetricsRegistryTest, KindClashThrows) {
  MetricsRegistry registry;
  registry.GetCounter("x");
  EXPECT_THROW(registry.GetGauge("x"), std::invalid_argument);
  EXPECT_THROW(registry.GetHistogram("x"), std::invalid_argument);
  registry.GetGauge("g");
  EXPECT_THROW(registry.GetCounter("g"), std::invalid_argument);
}

TEST(MetricsRegistryTest, HistogramKeepsFirstSpec) {
  MetricsRegistry registry;
  HistogramSpec first;
  first.buckets = 4;
  registry.GetHistogram("h", first);
  HistogramSpec second;
  second.buckets = 10;
  registry.GetHistogram("h", second);
  const MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].upper_bounds.size(), 4u);
}

TEST(MetricsRegistryTest, DisabledRegistryWritesNothing) {
  TelemetryConfig config;
  config.enabled = false;
  MetricsRegistry registry(config);
  auto c = registry.GetCounter("c");
  auto g = registry.GetGauge("g");
  auto h = registry.GetHistogram("h");
  EXPECT_FALSE(c.bound());
  EXPECT_FALSE(g.bound());
  EXPECT_FALSE(h.bound());
  c.Inc(100);
  g.Set(5.0);
  h.Observe(1.0);
  const MetricsSnapshot snap = registry.Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

// ------------------------------------------------------------ histogram

TEST(HistogramTest, LogSpacedBucketMath) {
  telemetry::Histogram h({/*first_bound=*/1.0, /*growth=*/2.0,
                          /*buckets=*/4});
  // Finite bounds: 1, 2, 4, 8; bucket i spans (bound[i-1], bound[i]].
  const std::vector<double> bounds = h.UpperBounds();
  ASSERT_EQ(bounds.size(), 4u);
  EXPECT_DOUBLE_EQ(bounds[0], 1.0);
  EXPECT_DOUBLE_EQ(bounds[3], 8.0);
  EXPECT_EQ(h.BucketOf(0.5), 0u);
  EXPECT_EQ(h.BucketOf(1.0), 0u);
  EXPECT_EQ(h.BucketOf(1.5), 1u);
  EXPECT_EQ(h.BucketOf(2.0), 1u);
  EXPECT_EQ(h.BucketOf(2.1), 2u);
  EXPECT_EQ(h.BucketOf(8.0), 3u);
  EXPECT_EQ(h.BucketOf(9.0), 4u);  // overflow bucket

  for (const double x : {0.5, 1.0, 1.5, 2.0, 2.1, 8.0, 9.0}) h.Observe(x);
  const std::vector<std::uint64_t> counts = h.BucketCounts();
  ASSERT_EQ(counts.size(), 5u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 2u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(counts[4], 1u);
  EXPECT_EQ(h.Count(), 7u);
  EXPECT_NEAR(h.Sum(), 24.1, 1e-12);
}

TEST(HistogramTest, SpecValidation) {
  EXPECT_THROW((telemetry::HistogramSpec{0.0, 2.0, 4}.Validate()),
               std::invalid_argument);
  EXPECT_THROW((telemetry::HistogramSpec{1.0, 1.0, 4}.Validate()),
               std::invalid_argument);
  EXPECT_THROW((telemetry::HistogramSpec{1.0, 2.0, 0}.Validate()),
               std::invalid_argument);
}

// ------------------------------------------------------ flight recorder

TEST(FlightRecorderTest, CapacityRoundsUpToPowerOfTwo) {
  FlightRecorder recorder(5);
  EXPECT_TRUE(recorder.enabled());
  EXPECT_EQ(recorder.capacity(), 8u);
}

TEST(FlightRecorderTest, ZeroCapacityDisablesRecording) {
  FlightRecorder recorder(0);
  EXPECT_FALSE(recorder.enabled());
  recorder.Record(BatchTraceRecord{});
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_TRUE(recorder.Dump().empty());
}

TEST(FlightRecorderTest, WrapKeepsMostRecentOldestFirst) {
  FlightRecorder recorder(4);
  for (int i = 0; i < 10; ++i) {
    BatchTraceRecord rec;
    rec.now_s = static_cast<double>(i);
    recorder.Record(rec);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const std::vector<BatchTraceRecord> dump = recorder.Dump();
  ASSERT_EQ(dump.size(), 4u);
  for (std::size_t i = 0; i < dump.size(); ++i) {
    EXPECT_EQ(dump[i].sequence, 6u + i);
    EXPECT_DOUBLE_EQ(dump[i].now_s, static_cast<double>(6 + i));
  }
  const std::vector<BatchTraceRecord> last_two = recorder.Dump(2);
  ASSERT_EQ(last_two.size(), 2u);
  EXPECT_EQ(last_two[0].sequence, 8u);
  EXPECT_EQ(last_two[1].sequence, 9u);
}

// The recorder's one writer laps a small ring until a concurrent reader
// has dumped it 200 times. Every dumped record must be internally
// consistent (all fields from one record, never a torn mix of two) with
// strictly increasing sequences, and every record written is counted.
// This is one of the TSan CI targets.
TEST(FlightRecorderTest, WriterRacingDumpNeverTearsRecords) {
  FlightRecorder recorder(8);

  const auto check_dump = [&recorder](std::uint64_t& torn) {
    std::uint64_t last_seq = 0;
    bool first = true;
    for (const BatchTraceRecord& rec : recorder.Dump()) {
      // Writer invariant: now_s is the record's index, batch_size and
      // total_ns are derived from it.
      const bool consistent =
          rec.now_s == static_cast<double>(rec.sequence) &&
          rec.batch_size == static_cast<std::uint32_t>(rec.sequence % 7) &&
          rec.total_ns == 2.0 * rec.now_s &&
          (first || rec.sequence > last_seq);
      if (!consistent) ++torn;
      last_seq = rec.sequence;
      first = false;
    }
  };

  std::atomic<bool> reader_done{false};
  std::uint64_t written = 0;
  std::thread writer([&] {
    while (written < 1000 || !reader_done.load(std::memory_order_relaxed)) {
      BatchTraceRecord rec;
      rec.now_s = static_cast<double>(written);
      rec.batch_size = static_cast<std::uint32_t>(written % 7);
      rec.total_ns = 2.0 * rec.now_s;
      recorder.Record(rec);
      ++written;
    }
  });
  std::uint64_t torn_during_run = 0;
  for (int i = 0; i < 200; ++i) check_dump(torn_during_run);
  reader_done.store(true, std::memory_order_relaxed);
  writer.join();

  EXPECT_EQ(torn_during_run, 0u);
  std::uint64_t torn_after = 0;
  check_dump(torn_after);
  EXPECT_EQ(torn_after, 0u);
  EXPECT_EQ(recorder.recorded(), written);
  const std::vector<BatchTraceRecord> last = recorder.Dump();
  ASSERT_EQ(last.size(), recorder.capacity());
  EXPECT_EQ(last.back().sequence, written - 1);
}

// ------------------------------------------------------------ exporters

TEST(ExportTest, PrometheusNameMangling) {
  EXPECT_EQ(telemetry::PrometheusName("stage.parse.packets"),
            "analognf_stage_parse_packets");
  EXPECT_EQ(telemetry::PrometheusName("tcam.firewall.rows_scanned"),
            "analognf_tcam_firewall_rows_scanned");
}

TEST(ExportTest, FormatValueIsRoundTrippable) {
  EXPECT_EQ(telemetry::FormatValue(42.0), "42");
  EXPECT_EQ(std::stod(telemetry::FormatValue(0.1)), 0.1);
  const double v = 1.0 / 3.0;
  EXPECT_EQ(std::stod(telemetry::FormatValue(v)), v);
}

// The differential round-trip the issue asks for: both exporters render
// from the same snapshot through the same value formatter, so every
// metric's rendered value must appear verbatim in both documents.
TEST(ExportTest, PrometheusAndJsonCarryIdenticalValues) {
  MetricsRegistry registry;
  registry.GetCounter("switch.injected").Inc(12345);
  registry.GetGauge("switch.queue_depth").Set(1.0 / 3.0);
  auto h = registry.GetHistogram("stage.parse.ns",
                                 HistogramSpec{1.0, 2.0, 4});
  for (const double x : {0.5, 1.5, 3.0, 100.0}) h.Observe(x);

  const MetricsSnapshot snap = registry.Snapshot();
  const std::string prom = telemetry::ToPrometheusText(snap);
  const std::string json = telemetry::ToJson(snap);

  for (const auto& c : snap.counters) {
    const std::string value = telemetry::FormatValue(
        static_cast<double>(c.value));
    EXPECT_NE(prom.find(telemetry::PrometheusName(c.name) + " " + value),
              std::string::npos)
        << c.name;
    EXPECT_NE(json.find("\"" + c.name + "\": " + value),
              std::string::npos)
        << c.name;
  }
  for (const auto& g : snap.gauges) {
    const std::string value = telemetry::FormatValue(g.value);
    EXPECT_NE(prom.find(telemetry::PrometheusName(g.name) + " " + value),
              std::string::npos)
        << g.name;
    EXPECT_NE(json.find("\"" + g.name + "\": " + value),
              std::string::npos)
        << g.name;
  }
  for (const auto& hist : snap.histograms) {
    // Same total count and sum in both documents.
    const std::string count = telemetry::FormatValue(
        static_cast<double>(hist.count));
    const std::string sum = telemetry::FormatValue(hist.sum);
    EXPECT_NE(prom.find(telemetry::PrometheusName(hist.name) + "_count " +
                        count),
              std::string::npos);
    EXPECT_NE(prom.find(telemetry::PrometheusName(hist.name) + "_sum " +
                        sum),
              std::string::npos);
    EXPECT_NE(json.find("\"count\": " + count), std::string::npos);
    EXPECT_NE(json.find("\"sum\": " + sum), std::string::npos);
    // Prometheus buckets are cumulative; the +Inf bucket equals count.
    EXPECT_NE(prom.find("le=\"+Inf\"} " + count), std::string::npos);
  }
}

TEST(ExportTest, FlightRecorderDumpExportsAsJson) {
  FlightRecorder recorder(4);
  BatchTraceRecord rec;
  rec.now_s = 1.5;
  rec.batch_size = 64;
  rec.forwarded = 60;
  rec.aqm_drops = 4;
  rec.stage_count = 2;
  rec.stage_ns[0] = 10.0;
  rec.stage_ns[1] = 20.0;
  rec.total_ns = 30.0;
  recorder.Record(rec);
  const std::string json = telemetry::ToJson(recorder.Dump());
  EXPECT_NE(json.find("\"batch_size\": 64"), std::string::npos);
  EXPECT_NE(json.find("\"forwarded\": 60"), std::string::npos);
  EXPECT_NE(json.find("\"aqm_drops\": 4"), std::string::npos);
  EXPECT_NE(json.find("\"sequence\": 0"), std::string::npos);
}

// ---------------------------------------------------------- hub (combo)

TEST(TelemetryHubTest, WritePostMortemContainsBothSections) {
  telemetry::Telemetry hub;
  hub.metrics().GetCounter("switch.injected").Inc(3);
  BatchTraceRecord rec;
  rec.batch_size = 3;
  hub.recorder().Record(rec);
  std::ostringstream out;
  hub.WritePostMortem(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("analognf_switch_injected 3"), std::string::npos);
  EXPECT_NE(text.find("\"batch_size\": 3"), std::string::npos);
}

// ------------------------------------------------- switch integration

arch::SwitchConfig CognitiveConfig() {
  arch::SwitchConfig c;
  c.port_count = 4;
  c.port_rate_bps = 100.0e6;
  c.service_classes = 2;
  c.enable_aqm = true;
  c.enable_load_balancer = true;
  c.enable_classifier = true;
  c.classifier_classes = {
      {"interactive", 40.0, 400.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
      {"bulk", 400.0, 1600.0, 1.0e-6, 1.0e-2, 0.0, 4.0},
  };
  return c;
}

net::Packet MakeFlowPacket(std::uint32_t flow, std::size_t payload) {
  net::EthernetHeader eth;
  eth.dst = {2, 0, 0, 0, 0, 1};
  eth.src = {2, 0, 0, 0, 0, 2};
  net::Ipv4Header ip;
  ip.src_ip = 0x01010000u + flow;
  ip.dst_ip = 0x0a000000u + (flow & 0xffu);
  ip.protocol = net::kIpProtoUdp;
  net::UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(1024 + (flow & 0x3ffu));
  udp.dst_port = 53;
  return net::PacketBuilder()
      .Ethernet(eth)
      .Ipv4(ip)
      .Udp(udp)
      .Payload(payload)
      .Build();
}

std::vector<net::Packet> MakeTraffic(std::size_t count) {
  std::vector<net::Packet> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    packets.push_back(MakeFlowPacket(static_cast<std::uint32_t>(i % 64),
                                     64 + (i % 512)));
  }
  return packets;
}

void InstallTables(arch::CognitiveSwitch& sw) {
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 24, 0);
  sw.AddFirewallRule(arch::FirewallPattern{}, true, 1);
}

TEST(SwitchTelemetryTest, CountersMirrorSwitchStats) {
  arch::CognitiveSwitch sw(CognitiveConfig());
  InstallTables(sw);
  const auto packets = MakeTraffic(256);
  sw.InjectBatch(packets, 0.0);
  sw.InjectBatch(packets, 1.0e-3);
  sw.Drain(2.0e-3);

  const MetricsSnapshot snap = sw.telemetry().metrics().Snapshot();
  const arch::SwitchStats& stats = sw.stats();
  EXPECT_EQ(CounterValue(snap, "switch.injected"), stats.injected);
  EXPECT_EQ(CounterValue(snap, "switch.forwarded"), stats.forwarded);
  EXPECT_EQ(CounterValue(snap, "switch.parse_errors"), stats.parse_errors);
  EXPECT_EQ(CounterValue(snap, "switch.firewall_denies"),
            stats.firewall_denies);
  EXPECT_EQ(CounterValue(snap, "switch.no_route"), stats.no_route);
  EXPECT_EQ(CounterValue(snap, "switch.aqm_drops"), stats.aqm_drops);
  EXPECT_EQ(CounterValue(snap, "switch.queue_full"), stats.queue_full);
  EXPECT_EQ(CounterValue(snap, "switch.batches"), 2u);

  // The engines behind the digital and analog MATs reported in.
  EXPECT_GE(CounterValue(snap, "tcam.firewall.searches"), stats.injected);
  EXPECT_GT(CounterValue(snap, "tcam.route.searches"), 0u);
  EXPECT_GT(CounterValue(snap, "tcam.route.rows_scanned"), 0u);
  EXPECT_GT(CounterValue(snap, "pcam.classifier.searches"), 0u);
  EXPECT_GT(CounterValue(snap, "pcam.lb.searches"), 0u);

  // Every built-in stage publishes its packet counter.
  for (const auto& stage : sw.graph().stages()) {
    EXPECT_EQ(CounterValue(snap, "stage." + stage->name() + ".packets"),
              stats.injected)
        << stage->name();
    EXPECT_EQ(CounterValue(snap, "stage." + stage->name() + ".invocations"),
              2u)
        << stage->name();
  }
}

TEST(SwitchTelemetryTest, FlightRecorderTracksBatches) {
  arch::CognitiveSwitch sw(CognitiveConfig());
  InstallTables(sw);
  const auto packets = MakeTraffic(128);
  sw.InjectBatch(packets, 0.0);
  sw.Inject(packets[0], 1.0e-3);

  const FlightRecorder& recorder = sw.telemetry().recorder();
  EXPECT_EQ(recorder.recorded(), 2u);
  const std::vector<BatchTraceRecord> dump = recorder.Dump();
  ASSERT_EQ(dump.size(), 2u);

  const BatchTraceRecord& batch = dump[0];
  EXPECT_EQ(batch.batch_size, 128u);
  // Verdict counts partition the batch.
  EXPECT_EQ(batch.forwarded + batch.parse_errors + batch.firewall_denies +
                batch.no_route + batch.aqm_drops + batch.queue_full,
            batch.batch_size);
  EXPECT_EQ(batch.stage_count, sw.graph().stages().size());
  EXPECT_GT(batch.total_ns, 0.0);
  // The analog stages contributed match-probability samples.
  EXPECT_GT(batch.degree_count, 0u);
  EXPECT_GE(batch.degree_max, batch.degree_min);
  EXPECT_GE(batch.degree_sum,
            batch.degree_min * static_cast<double>(batch.degree_count));

  EXPECT_EQ(dump[1].batch_size, 1u);
  EXPECT_DOUBLE_EQ(dump[1].now_s, 1.0e-3);
}

TEST(SwitchTelemetryTest, DisabledConfigWritesNoMetrics) {
  arch::SwitchConfig config = CognitiveConfig();
  config.telemetry.enabled = false;
  arch::CognitiveSwitch sw(config);
  InstallTables(sw);
  const auto packets = MakeTraffic(128);
  sw.InjectBatch(packets, 0.0);
  sw.Drain(1.0e-3);

  EXPECT_FALSE(sw.telemetry().enabled());
  const MetricsSnapshot snap = sw.telemetry().metrics().Snapshot();
  EXPECT_TRUE(snap.counters.empty());
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
  EXPECT_EQ(sw.telemetry().recorder().recorded(), 0u);
  // The data plane itself is unaffected.
  EXPECT_EQ(sw.stats().injected, 128u);
}

TEST(SwitchTelemetryTest, VerdictsIdenticalEnabledVsDisabled) {
  arch::SwitchConfig off = CognitiveConfig();
  off.telemetry.enabled = false;
  arch::CognitiveSwitch enabled(CognitiveConfig());
  arch::CognitiveSwitch disabled(off);
  InstallTables(enabled);
  InstallTables(disabled);
  const auto packets = MakeTraffic(400);
  const auto v_on = enabled.InjectBatch(packets, 0.0);
  const auto v_off = disabled.InjectBatch(packets, 0.0);
  ASSERT_EQ(v_on.size(), v_off.size());
  for (std::size_t i = 0; i < v_on.size(); ++i) {
    EXPECT_EQ(v_on[i], v_off[i]) << "packet " << i;
  }
  EXPECT_EQ(enabled.ledger().TotalJ(), disabled.ledger().TotalJ());
}

}  // namespace
}  // namespace analognf
