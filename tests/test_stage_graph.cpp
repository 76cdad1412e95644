// Stage-graph refactor guarantees:
//  * golden differential — the stage-graph switch is bit-identical
//    (verdicts, stats, canonical energy ledger) to a from-primitives
//    replica of the pre-refactor sequential pipeline, and the batched
//    path is bit-identical to one-packet-at-a-time execution, including
//    with the cognitive analog stages enabled;
//  * invariants — per-verdict counters partition `injected`, and the
//    per-stage energy attribution sums to the canonical ledger total;
//  * the pluggable stages: analog load balancer, analog traffic
//    classifier, custom stage insertion, and config validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <span>
#include <vector>

#include "analognf/arch/keys.hpp"
#include "analognf/arch/stages.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/net/packet.hpp"
#include "analognf/net/parser.hpp"

namespace analognf::arch {
namespace {

net::Packet MakeUdpPacket(const std::string& src, const std::string& dst,
                          std::uint16_t sport, std::uint16_t dport,
                          std::size_t payload = 100,
                          std::uint8_t dscp = 0) {
  net::EthernetHeader eth;
  eth.dst = {2, 0, 0, 0, 0, 1};
  eth.src = {2, 0, 0, 0, 0, 2};
  net::Ipv4Header ip;
  ip.src_ip = net::ParseIpv4(src);
  ip.dst_ip = net::ParseIpv4(dst);
  ip.protocol = net::kIpProtoUdp;
  ip.dscp = dscp;
  net::UdpHeader udp;
  udp.src_port = sport;
  udp.dst_port = dport;
  return net::PacketBuilder()
      .Ethernet(eth)
      .Ipv4(ip)
      .Udp(udp)
      .Payload(payload)
      .Build();
}

// Deterministic traffic mix exercising every verdict kind: forwarded,
// parse errors (junk bytes), firewall denies (port 666), no-route
// (20.x dst), AQM drops and queue-full (small queues, no drain).
std::vector<net::Packet> MakeTrafficMix(std::size_t count,
                                        std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<net::Packet> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t kind = rng() % 10;
    if (kind == 0) {
      packets.emplace_back(
          std::vector<std::uint8_t>(rng() % 32, std::uint8_t{0xff}));
      continue;
    }
    const std::string src = "1.1." + std::to_string(rng() % 4) + "." +
                            std::to_string(rng() % 8);
    const bool routable = kind < 8;
    const std::string dst = (routable ? "10.0.0." : "20.0.0.") +
                            std::to_string(rng() % 16);
    const auto sport = static_cast<std::uint16_t>(1024 + rng() % 64);
    const auto dport =
        static_cast<std::uint16_t>(kind == 1 ? 666 : 53 + rng() % 4);
    const std::size_t payload = 40 + rng() % 600;
    const auto dscp = static_cast<std::uint8_t>((rng() % 8) << 3);
    packets.push_back(MakeUdpPacket(src, dst, sport, dport, payload, dscp));
  }
  return packets;
}

SwitchConfig MixConfig() {
  SwitchConfig c;
  c.port_count = 3;
  c.port_rate_bps = 10.0e6;
  c.service_classes = 2;
  c.egress_queue.max_packets = 12;  // small enough to tail-drop
  c.enable_aqm = true;
  return c;
}

void InstallMixTables(auto& sw) {
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 24, 0);
  sw.AddRoute(net::ParseIpv4("10.0.0.8"), 29, 1);  // more-specific slice
  FirewallPattern deny;
  deny.dst_port = 666;
  deny.any_dst_port = false;
  sw.AddFirewallRule(deny, false, 10);
  sw.AddFirewallRule(FirewallPattern{}, true, 1);
}

// ------------------------------------------------------------ reference
// From-primitives replica of the pre-refactor CognitiveSwitch ingress
// pipeline (sequential parse -> firewall -> LPM -> AQM admission), with
// the exact stats/ledger accumulation order of the original code. This
// is the golden model the stage graph must match bit for bit.
class ReferenceSwitch {
 public:
  static constexpr std::uint32_t kActionPermit = 1;
  static constexpr std::uint32_t kActionDeny = 0;

  explicit ReferenceSwitch(const SwitchConfig& config)
      : config_(config),
        routes_(config.digital_technology),
        firewall_(kFiveTupleBits, config.digital_technology) {
    for (std::size_t p = 0; p < config_.port_count; ++p) {
      Port port;
      for (std::size_t sc = 0; sc < config_.service_classes; ++sc) {
        port.queues.emplace_back(config_.egress_queue);
        if (config_.enable_aqm) {
          aqm::AnalogAqmConfig aqm_config = config_.aqm;
          aqm_config.hardware.seed += 0xa9 * (p + 1) + 0x1d * (sc + 1);
          port.aqms.push_back(std::make_unique<aqm::AnalogAqm>(aqm_config));
        }
      }
      ports_.push_back(std::move(port));
    }
  }

  void AddRoute(std::uint32_t dst_ip, int prefix_len, std::size_t port) {
    routes_.AddRoute(dst_ip, prefix_len, static_cast<std::uint32_t>(port));
  }

  void AddFirewallRule(const FirewallPattern& pattern, bool permit,
                       std::int32_t priority) {
    tcam::TcamTable::Entry entry;
    entry.pattern = BuildFirewallWord(pattern);
    entry.action = permit ? kActionPermit : kActionDeny;
    entry.priority = priority;
    firewall_.Insert(std::move(entry));
  }

  Verdict Inject(const net::Packet& packet, double now_s) {
    // Same batch-boundary commit discipline as the stage graph.
    firewall_.Commit();
    routes_.Commit();
    energy::CategoryTotal& compute =
        *ledger_.Meter(energy::category::kDigitalCompute);
    energy::CategoryTotal& movement =
        *ledger_.Meter(energy::category::kDataMovement);
    energy::CategoryTotal& tcam =
        *ledger_.Meter(energy::category::kTcamSearch);
    energy::CategoryTotal& pcam =
        *ledger_.Meter(energy::category::kPcamSearch);
    ++stats_.injected;
    const auto header_bits = static_cast<std::uint64_t>(
        8 * std::min<std::size_t>(packet.size(), 42));
    const energy::MovementBreakdown cost = movement_.CostOf(header_bits);
    compute.energy_j += cost.compute_j;
    ++compute.operations;
    movement.energy_j += cost.movement_j;
    ++movement.operations;
    const net::ParsedPacket parsed =
        parser_.Parse(packet.bytes().data(), packet.size());
    if (!parsed.ok()) {
      ++stats_.parse_errors;
      return Verdict::kParseError;
    }
    if (!parsed.ipv4.has_value()) {
      ++stats_.no_route;
      return Verdict::kNoRoute;
    }
    const net::FiveTuple tuple = parsed.Key();
    tcam::BitKey key;
    FiveTupleKeyInto(tuple, key);
    const auto firewall = firewall_.snapshot();
    const auto fw = firewall->engine.Search(key);
    tcam.energy_j += firewall->search_energy_j;
    ++tcam.operations;
    if (fw.has_value() && fw->action == kActionDeny) {
      ++stats_.firewall_denies;
      return Verdict::kFirewallDeny;
    }
    const std::uint32_t dst_ip = parsed.ipv4->dst_ip;
    const auto lpm = routes_.snapshot();
    std::vector<std::optional<tcam::TcamEngineHit>> routes;
    lpm->engine.LookupBatch(&dst_ip, 1, routes);
    const std::optional<tcam::TcamEngineHit>& route = routes[0];
    tcam.energy_j += lpm->search_energy_j;
    ++tcam.operations;
    if (!route.has_value()) {
      ++stats_.no_route;
      return Verdict::kNoRoute;
    }
    net::PacketMeta meta;
    meta.id = next_packet_id_++;
    meta.arrival_time_s = now_s;
    meta.size_bytes = static_cast<std::uint32_t>(packet.size());
    meta.flow_hash = tuple.Hash();
    meta.priority = static_cast<std::uint8_t>(parsed.ipv4->dscp >> 3);

    Port& port = ports_[route->action];
    const std::size_t classes = config_.service_classes;
    const std::size_t inv = 7 - std::min<std::size_t>(meta.priority, 7);
    const std::size_t service_class =
        classes == 1 ? 0 : std::min(classes - 1, inv * classes / 8);
    net::PacketQueue& queue = port.queues[service_class];
    if (!port.aqms.empty()) {
      aqm::AnalogAqm& class_aqm = *port.aqms[service_class];
      aqm::AqmContext ctx;
      ctx.now_s = now_s;
      ctx.sojourn_s = queue.HeadSojourn(now_s);
      ctx.queue_bytes = queue.bytes();
      ctx.queue_packets = queue.packets();
      ctx.packet = meta;
      const double before_j = class_aqm.ConsumedEnergyJ();
      const bool drop =
          class_aqm.DecideOnEnqueue(ctx) == aqm::AqmVerdict::kDrop;
      pcam.energy_j += class_aqm.ConsumedEnergyJ() - before_j;
      ++pcam.operations;
      if (drop) {
        queue.NoteAqmDrop(meta);
        ++stats_.aqm_drops;
        return Verdict::kAqmDrop;
      }
    }
    if (!queue.Enqueue(meta, now_s)) {
      ++stats_.queue_full;
      return Verdict::kQueueFull;
    }
    ++stats_.forwarded;
    return Verdict::kForwarded;
  }

  const SwitchStats& stats() const { return stats_; }
  const energy::EnergyLedger& ledger() const { return ledger_; }

 private:
  struct Port {
    std::vector<net::PacketQueue> queues;
    std::vector<std::unique_ptr<aqm::AnalogAqm>> aqms;
  };

  SwitchConfig config_;
  net::Parser parser_;
  tcam::LpmTable routes_;
  tcam::TcamTable firewall_;
  energy::DataMovementModel movement_;
  std::vector<Port> ports_;
  SwitchStats stats_;
  energy::EnergyLedger ledger_;
  std::uint64_t next_packet_id_ = 0;
};

void ExpectStatsEq(const SwitchStats& a, const SwitchStats& b) {
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.forwarded, b.forwarded);
  EXPECT_EQ(a.marked, b.marked);
  EXPECT_EQ(a.parse_errors, b.parse_errors);
  EXPECT_EQ(a.firewall_denies, b.firewall_denies);
  EXPECT_EQ(a.no_route, b.no_route);
  EXPECT_EQ(a.aqm_drops, b.aqm_drops);
  EXPECT_EQ(a.queue_full, b.queue_full);
  EXPECT_EQ(a.delivered, b.delivered);
}

std::uint64_t TotalOperations(const energy::EnergyLedger& ledger) {
  std::uint64_t total = 0;
  for (const auto& [name, category] : ledger.categories()) {
    total += category.operations;
  }
  return total;
}

// Bit-exact ledger comparison: identical categories, identical doubles.
void ExpectLedgersIdentical(const energy::EnergyLedger& a,
                            const energy::EnergyLedger& b) {
  ASSERT_EQ(a.categories().size(), b.categories().size());
  auto it_b = b.categories().begin();
  for (const auto& [name, total] : a.categories()) {
    EXPECT_EQ(name, it_b->first);
    EXPECT_EQ(total.energy_j, it_b->second.energy_j) << name;
    EXPECT_EQ(total.operations, it_b->second.operations) << name;
    ++it_b;
  }
  EXPECT_EQ(a.TotalJ(), b.TotalJ());
}

// ----------------------------------------------------- golden differential

TEST(GoldenDifferentialTest, StageGraphMatchesReferencePipeline) {
  const SwitchConfig config = MixConfig();
  CognitiveSwitch sw(config);
  ReferenceSwitch ref(config);
  InstallMixTables(sw);
  InstallMixTables(ref);

  const auto packets = MakeTrafficMix(600, /*seed=*/0xd1ff);
  SwitchStats seen{};  // prove the mix exercises every verdict kind
  for (std::size_t i = 0; i < packets.size(); ++i) {
    const double now_s = 1.0e-4 * static_cast<double>(i);
    const Verdict got = sw.Inject(packets[i], now_s);
    const Verdict want = ref.Inject(packets[i], now_s);
    ASSERT_EQ(got, want) << "packet " << i;
    switch (got) {
      case Verdict::kForwarded: ++seen.forwarded; break;
      case Verdict::kParseError: ++seen.parse_errors; break;
      case Verdict::kFirewallDeny: ++seen.firewall_denies; break;
      case Verdict::kNoRoute: ++seen.no_route; break;
      case Verdict::kAqmDrop: ++seen.aqm_drops; break;
      case Verdict::kQueueFull: ++seen.queue_full; break;
    }
  }
  EXPECT_GT(seen.forwarded, 0u);
  EXPECT_GT(seen.parse_errors, 0u);
  EXPECT_GT(seen.firewall_denies, 0u);
  EXPECT_GT(seen.no_route, 0u);
  EXPECT_GT(seen.aqm_drops, 0u);
  EXPECT_GT(seen.queue_full, 0u);

  ExpectStatsEq(sw.stats(), ref.stats());
  ExpectLedgersIdentical(sw.ledger(), ref.ledger());
}

TEST(GoldenDifferentialTest, BatchedGraphMatchesSequentialGraph) {
  const SwitchConfig config = MixConfig();
  CognitiveSwitch batched(config);
  CognitiveSwitch sequential(config);
  InstallMixTables(batched);
  InstallMixTables(sequential);

  const auto packets = MakeTrafficMix(500, /*seed=*/0xbeef);
  std::mt19937_64 rng(7);
  std::vector<Delivery> d_batched;
  std::vector<Delivery> d_sequential;
  std::size_t i = 0;
  double now_s = 0.0;
  while (i < packets.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng() % 37, packets.size() - i);
    const auto batch_verdicts = batched.InjectBatch(
        std::span<const net::Packet>(packets.data() + i, n), now_s);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(sequential.Inject(packets[i + j], now_s), batch_verdicts[j])
          << "packet " << i + j;
    }
    i += n;
    now_s += 2.0e-3;
    // Interleave drains so egress/TM state is exercised mid-stream.
    batched.DrainInto(now_s, d_batched);
    sequential.DrainInto(now_s, d_sequential);
  }
  batched.DrainInto(1.0e9, d_batched);
  sequential.DrainInto(1.0e9, d_sequential);

  ExpectStatsEq(batched.stats(), sequential.stats());
  ExpectLedgersIdentical(batched.ledger(), sequential.ledger());
  ASSERT_EQ(d_batched.size(), d_sequential.size());
  for (std::size_t k = 0; k < d_batched.size(); ++k) {
    EXPECT_EQ(d_batched[k].port, d_sequential[k].port);
    EXPECT_EQ(d_batched[k].meta.id, d_sequential[k].meta.id);
    EXPECT_EQ(d_batched[k].departure_s, d_sequential[k].departure_s);
    EXPECT_EQ(d_batched[k].sojourn_s, d_sequential[k].sojourn_s);
  }
}

SwitchConfig CognitiveConfig() {
  SwitchConfig c = MixConfig();
  c.enable_load_balancer = true;
  c.lb_ports = {0, 1};
  c.enable_classifier = true;
  c.classifier_classes = {
      {"bulk", 400.0, 1600.0, 1.0e-5, 1.0e-2, 0.0, 2.0},
      {"interactive", 40.0, 400.0, 1.0e-5, 1.0e-2, 0.0, 2.0},
  };
  return c;
}

TEST(GoldenDifferentialTest, CognitiveStagesStayBitIdenticalUnderBatching) {
  // The analog stages defer canonical pCAM energy through the batch's
  // analog_commits lane; this is what keeps batch == sequential exact
  // even with the load balancer and classifier enabled.
  const SwitchConfig config = CognitiveConfig();
  CognitiveSwitch batched(config);
  CognitiveSwitch sequential(config);
  InstallMixTables(batched);
  InstallMixTables(sequential);

  const auto packets = MakeTrafficMix(400, /*seed=*/0xc09);
  std::mt19937_64 rng(11);
  std::size_t i = 0;
  double now_s = 0.0;
  while (i < packets.size()) {
    const std::size_t n =
        std::min<std::size_t>(1 + rng() % 23, packets.size() - i);
    const auto batch_verdicts = batched.InjectBatch(
        std::span<const net::Packet>(packets.data() + i, n), now_s);
    for (std::size_t j = 0; j < n; ++j) {
      ASSERT_EQ(sequential.Inject(packets[i + j], now_s), batch_verdicts[j])
          << "packet " << i + j;
    }
    i += n;
    now_s += 1.0e-3;
  }
  ExpectStatsEq(batched.stats(), sequential.stats());
  ExpectLedgersIdentical(batched.ledger(), sequential.ledger());
}

// ------------------------------------------------------------ invariants

TEST(InvariantTest, VerdictCountersPartitionInjected) {
  for (const SwitchConfig& config : {MixConfig(), CognitiveConfig()}) {
    CognitiveSwitch sw(config);
    InstallMixTables(sw);
    const auto packets = MakeTrafficMix(700, /*seed=*/0x9a7);
    sw.InjectBatch(packets, 0.0);
    sw.InjectBatch(packets, 0.5);
    const SwitchStats& s = sw.stats();
    EXPECT_EQ(s.injected, 2 * packets.size());
    EXPECT_EQ(s.forwarded + s.parse_errors + s.firewall_denies + s.no_route +
                  s.aqm_drops + s.queue_full,
              s.injected);
  }
}

TEST(InvariantTest, StageEnergyAttributionSumsToLedgerTotal) {
  for (const SwitchConfig& config : {MixConfig(), CognitiveConfig()}) {
    CognitiveSwitch sw(config);
    InstallMixTables(sw);
    const auto packets = MakeTrafficMix(600, /*seed=*/0x57a6e);
    sw.InjectBatch(packets, 0.0);

    // Same joules, grouped by pipeline position instead of hardware
    // category: stage meters were filled batch-wise, so they agree with
    // the strictly-ordered canonical ledger only up to FP rounding.
    const double total_j = sw.ledger().TotalJ();
    const double stage_j = sw.stage_ledger().TotalJ();
    EXPECT_NEAR(stage_j, total_j, 1.0e-9 * total_j);
    EXPECT_EQ(TotalOperations(sw.stage_ledger()),
              TotalOperations(sw.ledger()));

    // Every built-in stage shows up with its own "stage.<name>" meter.
    for (const auto& stage : sw.graph().stages()) {
      const auto metrics = stage->metrics();
      EXPECT_EQ(metrics.packets, packets.size()) << stage->name();
      EXPECT_EQ(metrics.invocations, 1u) << stage->name();
      EXPECT_EQ(sw.stage_ledger().Of("stage." + stage->name()).operations,
                metrics.energy->operations)
          << stage->name();
    }
    EXPECT_GT(sw.stage_ledger().Of("stage.parse").energy_j, 0.0);
    EXPECT_GT(sw.stage_ledger().Of("stage.firewall").energy_j, 0.0);
    EXPECT_GT(sw.stage_ledger().Of("stage.route").energy_j, 0.0);
    EXPECT_GT(sw.stage_ledger().Of("stage.traffic-manager").energy_j, 0.0);
  }
}

// -------------------------------------------------------- load balancer

TEST(LoadBalancerStageTest, FlowStickyAcrossInjections) {
  SwitchConfig config = MixConfig();
  config.enable_load_balancer = true;
  config.lb_ports = {0, 1, 2};
  CognitiveSwitch sw(config);
  InstallMixTables(sw);
  sw.AddRoute(net::ParseIpv4("10.0.1.0"), 24, 2);

  // Each flow must keep its (possibly rebalanced) egress port while the
  // stored loads are unchanged (the stage never calls UpdateLoad): same
  // flow -> same port in both rounds.
  std::map<std::uint64_t, std::size_t> flow_port;
  std::set<std::size_t> ports_used;
  std::uint64_t delivered = 0;
  std::size_t repeat_deliveries = 0;  // flows seen again, any round
  const auto packets = MakeTrafficMix(300, /*seed=*/0x1b);
  for (int round = 0; round < 2; ++round) {
    sw.InjectBatch(packets, 0.1 * round);
    // Drain before the next round's arrivals.
    for (const Delivery& d : sw.Drain(0.1 * (round + 1))) {
      ++delivered;
      ports_used.insert(d.port);
      const auto [it, fresh] = flow_port.emplace(d.meta.flow_hash, d.port);
      if (fresh) continue;
      ++repeat_deliveries;
      EXPECT_EQ(it->second, d.port)
          << "flow " << d.meta.flow_hash << " round " << round;
    }
  }
  EXPECT_EQ(delivered, sw.stats().forwarded);
  EXPECT_GT(repeat_deliveries, 0u);
  EXPECT_GE(ports_used.size(), 2u);  // the group really is balanced
  std::uint64_t enqueued = 0;
  for (std::size_t p = 0; p < config.port_count; ++p) {
    for (std::size_t sc = 0; sc < config.service_classes; ++sc) {
      enqueued += sw.egress_queue(p, sc).stats().enqueued;
    }
  }
  EXPECT_EQ(enqueued, sw.stats().forwarded);

  // Determinism of the flow-sticky pick itself, on a balancer over the
  // same three backends.
  cognitive::AnalogLoadBalancer lb(3);
  for (std::uint64_t h : {1ull, 99ull, 0xfeedull}) {
    const auto first = lb.PickForFlow(h);
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(lb.PickForFlow(h), first);
  }
}

TEST(LoadBalancerStageTest, UpdateLoadShiftsTraffic) {
  cognitive::AnalogLoadBalancer lb(3);
  auto share_of = [&](std::size_t backend) {
    std::size_t hits = 0;
    for (std::uint64_t h = 0; h < 2000; ++h) {
      const auto pick = lb.PickForFlow(h * 0x9e3779b97f4a7c15ull + 1);
      if (pick.has_value() && *pick == backend) ++hits;
    }
    return static_cast<double>(hits) / 2000.0;
  };
  const double balanced = share_of(0);
  EXPECT_NEAR(balanced, 1.0 / 3.0, 0.08);  // equal loads -> even split
  lb.UpdateLoad(0, 1.0);                   // backend 0 saturates
  const double overloaded = share_of(0);
  EXPECT_LT(overloaded, balanced / 2.0);
  EXPECT_THROW(lb.UpdateLoad(0, 1.5), std::invalid_argument);
  EXPECT_THROW(lb.UpdateLoad(9, 0.5), std::out_of_range);
}

// ----------------------------------------------------------- classifier

TEST(TrafficClassStageTest, TagsFlowsAndCountsClasses) {
  SwitchConfig config = MixConfig();
  config.enable_classifier = true;
  config.classifier_classes = {
      {"small", 40.0, 300.0, 1.0e-6, 1.0, 0.0, 4.0},
      {"large", 300.0, 1700.0, 1.0e-6, 1.0, 0.0, 4.0},
  };
  config.classifier_min_confidence = 0.01;
  CognitiveSwitch sw(config);
  InstallMixTables(sw);

  for (int i = 0; i < 40; ++i) {
    const double now_s = 1.0e-3 * i;
    sw.Inject(MakeUdpPacket("1.1.1.1", "10.0.0.1", 1000, 53, 60), now_s);
    sw.Inject(MakeUdpPacket("2.2.2.2", "10.0.0.2", 2000, 53, 1200), now_s);
    sw.Drain(now_s);  // keep queues shallow so everything forwards
  }
  ASSERT_NE(sw.classifier_stage(), nullptr);
  const auto& counts = sw.classifier_stage()->class_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_GT(counts[0], 0u);  // the 60-byte flow
  EXPECT_GT(counts[1], 0u);  // the 1200-byte flow
  EXPECT_EQ(counts[0] + counts[1] + sw.classifier_stage()->unclassified(),
            sw.stats().forwarded + sw.stats().aqm_drops +
                sw.stats().queue_full);
  EXPECT_GT(sw.ledger().Of(energy::category::kPcamSearch).operations,
            sw.stats().forwarded);  // classifier searches joined AQM's
}

// --------------------------------------------------------- custom stage

// Example custom stage: settles an admission verdict for every Nth
// still-in-flight packet before the traffic manager sees it.
class EveryNthDropStage final : public MatchActionStage {
 public:
  explicit EveryNthDropStage(std::uint64_t n)
      : MatchActionStage("every-nth-drop"), n_(n) {}
  void Process(net::PacketBatch& batch) override {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch.verdicts[i] != net::Verdict::kForwarded) continue;
      if (++counter_ % n_ == 0) {
        batch.verdicts[i] = net::Verdict::kAqmDrop;
      }
    }
  }

 private:
  std::uint64_t n_;
  std::uint64_t counter_ = 0;
};

TEST(CustomStageTest, InsertsBeforeTrafficManagerAndKeepsInvariants) {
  SwitchConfig config = MixConfig();
  CognitiveSwitch sw(config);
  InstallMixTables(sw);
  const auto& stage = sw.AddStage(std::make_unique<EveryNthDropStage>(3));
  EXPECT_EQ(stage.name(), "every-nth-drop");
  // parse, firewall, route, custom, traffic-manager.
  ASSERT_EQ(sw.graph().size(), 5u);
  EXPECT_EQ(sw.graph().stages()[3]->name(), "every-nth-drop");
  EXPECT_EQ(sw.graph().stages()[4]->name(), "traffic-manager");

  const auto packets = MakeTrafficMix(300, /*seed=*/0xabc);
  sw.InjectBatch(packets, 0.0);
  const SwitchStats& s = sw.stats();
  EXPECT_GT(s.aqm_drops, 0u);
  EXPECT_EQ(s.forwarded + s.parse_errors + s.firewall_denies + s.no_route +
                s.aqm_drops + s.queue_full,
            s.injected);
  EXPECT_EQ(stage.metrics().packets, packets.size());

  // Duplicate stage names are rejected (metrics would collide).
  EXPECT_THROW(sw.AddStage(std::make_unique<EveryNthDropStage>(5)),
               std::invalid_argument);
}

// ------------------------------------------------------------ validation

TEST(ConfigValidationTest, RejectsZeroValuedWrrWeight) {
  SwitchConfig c = MixConfig();
  c.scheduler = SchedulerPolicy::kWeightedRoundRobin;
  c.wrr_weights = {3, 0};
  EXPECT_THROW(CognitiveSwitch{c}, std::invalid_argument);
  // Zero weights are rejected even under strict priority: the vector is
  // dormant there, but it must still be coherent.
  c.scheduler = SchedulerPolicy::kStrictPriority;
  EXPECT_THROW(CognitiveSwitch{c}, std::invalid_argument);
  c.wrr_weights = {3, 1};
  EXPECT_NO_THROW(CognitiveSwitch{c});
}

TEST(ConfigValidationTest, RejectsWrrWeightSizeMismatch) {
  SwitchConfig c = MixConfig();
  c.scheduler = SchedulerPolicy::kWeightedRoundRobin;
  c.wrr_weights = {1, 2, 3};  // service_classes == 2
  EXPECT_THROW(CognitiveSwitch{c}, std::invalid_argument);
  c.wrr_weights = {};  // WRR with no weights at all
  EXPECT_THROW(CognitiveSwitch{c}, std::invalid_argument);
  c.scheduler = SchedulerPolicy::kStrictPriority;
  c.wrr_weights = {1, 2, 3};  // mismatched vector under strict priority
  EXPECT_THROW(CognitiveSwitch{c}, std::invalid_argument);
}

TEST(ConfigValidationTest, RejectsBadCognitiveStageConfigs) {
  SwitchConfig c = MixConfig();
  c.enable_load_balancer = true;
  c.lb_ports = {0, 7};  // port 7 >= port_count
  EXPECT_THROW(CognitiveSwitch{c}, std::invalid_argument);
  c.lb_ports = {0, 0};  // duplicate
  EXPECT_THROW(CognitiveSwitch{c}, std::invalid_argument);

  c = MixConfig();
  c.enable_classifier = true;  // no classes registered
  EXPECT_THROW(CognitiveSwitch{c}, std::invalid_argument);
  c.classifier_classes = {{"x", 0.0, 100.0, 1e-6, 1e-2, 0.0, 2.0}};
  c.classifier_min_confidence = -0.5;
  EXPECT_THROW(CognitiveSwitch{c}, std::invalid_argument);
}

}  // namespace
}  // namespace analognf::arch
