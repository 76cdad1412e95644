// Concurrent multi-port runtime guarantees:
//  * snapshot linearizability — under a mutating controller, every
//    concurrent reader search observes exactly the row set of one
//    committed snapshot, bracketed by the publish epochs around the
//    acquisition (never a torn or mid-recompile table);
//  * bit-identity — a SwitchGroup port produces verdicts, stats and
//    energy-ledger totals bit-identical to a solo CognitiveSwitch fed
//    the same stream, per port and in aggregate;
//  * port ingress: control commands apply at batch boundaries in
//    submission order (also when queued from a thread that does not
//    submit), Submit refuses a port with an attached ring, shared-mode
//    switches reject local table mutations, and commits become visible
//    to later batches.
//
// The stress tests here are the TSan targets of the concurrency CI job.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analognf/arch/port_runtime.hpp"
#include "analognf/arch/stages.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/net/packet.hpp"
#include "analognf/net/parser.hpp"
#include "analognf/tcam/tcam.hpp"

namespace analognf::arch {
namespace {

// ------------------------------------------------------ traffic helpers

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

// Mixed verdicts: forwarded, firewall denies (port 666), no-route
// (20.x dst), plus enough volume for AQM/queue pressure.
std::vector<net::Packet> MakeTrafficMix(std::size_t count,
                                        std::uint64_t seed) {
  RandomStream rng(seed);
  std::vector<net::Packet> packets;
  packets.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::uint64_t kind = rng.NextIndex(10);
    const std::string src = "1.1." + std::to_string(rng.NextIndex(4)) + "." +
                            std::to_string(rng.NextIndex(8));
    const std::string dst = (kind < 8 ? "10.0.0." : "20.0.0.") +
                            std::to_string(rng.NextIndex(16));
    const auto sport = static_cast<std::uint16_t>(1024 + rng.NextIndex(64));
    const auto dport =
        static_cast<std::uint16_t>(kind == 1 ? 666 : 53 + rng.NextIndex(4));
    const std::size_t payload = 40 + rng.NextIndex(600);
    const auto dscp = static_cast<std::uint8_t>(rng.NextIndex(8) << 3);
    packets.push_back(MakeUdpPacket(src, dst, sport, dport, payload, dscp));
  }
  return packets;
}

SwitchConfig GroupConfig() {
  SwitchConfig c;
  c.port_count = 3;
  c.port_rate_bps = 10.0e6;
  c.service_classes = 2;
  c.egress_queue.max_packets = 12;
  c.enable_aqm = true;
  return c;
}

void InstallTables(auto& sw) {
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 24, 0);
  sw.AddRoute(net::ParseIpv4("10.0.0.8"), 29, 1);
  FirewallPattern deny;
  deny.dst_port = 666;
  deny.any_dst_port = false;
  sw.AddFirewallRule(deny, false, 10);
  sw.AddFirewallRule(FirewallPattern{}, true, 1);
}

// 1024-rule ACL: the same deny-666/permit semantics as InstallTables,
// but with enough specific rules that the firewall TCAM compiles to the
// pruned match tier. The /32 source permits cover (and exceed) the
// 1.1.x.y space MakeTrafficMix draws from, so they really match.
void InstallLargeTables(auto& sw) {
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 24, 0);
  sw.AddRoute(net::ParseIpv4("10.0.0.8"), 29, 1);
  FirewallPattern deny;
  deny.dst_port = 666;
  deny.any_dst_port = false;
  sw.AddFirewallRule(deny, false, 10);
  for (std::uint32_t i = 0; i < 1022; ++i) {
    FirewallPattern p;
    p.src_ip = net::ParseIpv4("1.1.0.0") + i;
    p.src_prefix_len = 32;
    sw.AddFirewallRule(p, true, 5);
  }
  sw.AddFirewallRule(FirewallPattern{}, true, 1);
}

// Sum of every port's canonical ledger, in port order.
double TotalEnergyJ(SwitchGroup& group) {
  double total = 0.0;
  for (std::size_t p = 0; p < group.ports(); ++p) {
    total += group.device(p).ledger().TotalJ();
  }
  return total;
}

void ExpectStatsEq(const SwitchStats& got, const SwitchStats& want) {
  EXPECT_EQ(got.injected, want.injected);
  EXPECT_EQ(got.forwarded, want.forwarded);
  EXPECT_EQ(got.marked, want.marked);
  EXPECT_EQ(got.parse_errors, want.parse_errors);
  EXPECT_EQ(got.firewall_denies, want.firewall_denies);
  EXPECT_EQ(got.no_route, want.no_route);
  EXPECT_EQ(got.aqm_drops, want.aqm_drops);
  EXPECT_EQ(got.queue_full, want.queue_full);
  EXPECT_EQ(got.delivered, want.delivered);
}

// ----------------------------------------- snapshot linearizability

// The naive model a committed snapshot must agree with.
std::optional<tcam::TcamEngineHit> NaiveSearch(
    const std::vector<tcam::TcamTable::Entry>& entries,
    const std::vector<bool>& live, const tcam::BitKey& key) {
  std::optional<tcam::TcamEngineHit> best;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!live[i] || !entries[i].pattern.Matches(key)) continue;
    if (!best.has_value() || entries[i].priority > best->priority) {
      best = tcam::TcamEngineHit{i, entries[i].action, entries[i].priority};
    }
  }
  return best;
}

tcam::TernaryWord RandomPattern(RandomStream& rng, std::size_t width) {
  std::string s(width, '0');
  for (auto& c : s) {
    const std::uint64_t r = rng.NextIndex(4);
    c = r < 2 ? 'X' : (r == 2 ? '0' : '1');
  }
  return tcam::TernaryWord::FromString(s);
}

// One controller thread interleaves Insert/Erase/Commit on a TcamTable
// while reader threads search the published snapshots directly. Every
// search result must equal the precomputed answer of the exact snapshot
// epoch the reader acquired, and the acquisition must linearize between
// the publish epochs bracketing it. Run under TSan in CI.
TEST(SnapshotStressTest, SearchesLinearizeAgainstCommittedSnapshots) {
  constexpr std::size_t kWidth = 12;
  constexpr std::size_t kProbes = 16;
  constexpr std::uint64_t kRounds = 200;
  constexpr std::size_t kReaders = 3;

  RandomStream rng(0x20260806);
  std::vector<tcam::BitKey> keys;
  for (std::size_t i = 0; i < kProbes; ++i) {
    std::string bits(kWidth, '0');
    for (auto& c : bits) c = rng.NextIndex(2) == 0 ? '0' : '1';
    keys.push_back(tcam::BitKey::FromString(bits));
  }

  tcam::TcamTable table(kWidth, tcam::TcamTechnology::MemristorTcam());

  // expected[e][k]: the answer for keys[k] against the snapshot of epoch
  // e. Written by the controller strictly before the publish of epoch e,
  // so the acquire of snapshot e happens-after the write.
  std::vector<std::vector<std::optional<tcam::TcamEngineHit>>> expected(
      kRounds + 1,
      std::vector<std::optional<tcam::TcamEngineHit>>(kProbes));

  struct ReaderReport {
    std::uint64_t iterations = 0;
    std::uint64_t wrong_results = 0;
    std::uint64_t epoch_out_of_bracket = 0;
    std::uint64_t epoch_went_backwards = 0;
  };
  std::vector<ReaderReport> reports(kReaders);
  std::atomic<bool> done{false};
  // Readers that have finished one full iteration. The churn waits for
  // all of them, so a reader scheduled late on a loaded host still
  // searches at least once before `done` is raised.
  std::atomic<std::size_t> warmed_up{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (std::size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      ReaderReport& rep = reports[r];
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const std::uint64_t e0 = table.epoch();
        const auto snap = table.snapshot();
        const std::uint64_t e1 = table.epoch();
        // Publish bumps the epoch before the pointer lands, so a reader
        // seeing counter e0 holds snapshot e0-1 or e0 — never older, and
        // never newer than the counter after the acquisition.
        const std::uint64_t lo = e0 == 0 ? 0 : e0 - 1;
        if (snap->epoch < lo || snap->epoch > e1) ++rep.epoch_out_of_bracket;
        if (snap->epoch < last_epoch) ++rep.epoch_went_backwards;
        last_epoch = snap->epoch;
        const auto& want_row = expected[snap->epoch];
        for (std::size_t k = 0; k < kProbes; ++k) {
          const auto got = snap->engine.Search(keys[k]);
          const auto& want = want_row[k];
          const bool ok =
              got.has_value() == want.has_value() &&
              (!got.has_value() || (got->entry_index == want->entry_index &&
                                    got->action == want->action &&
                                    got->priority == want->priority));
          if (!ok) ++rep.wrong_results;
        }
        if (++rep.iterations == 1) {
          warmed_up.fetch_add(1, std::memory_order_release);
        }
      }
    });
  }

  while (warmed_up.load(std::memory_order_acquire) < kReaders) {
    std::this_thread::yield();
  }

  // Controller: random insert/erase churn, one commit per round.
  std::vector<bool> live;
  for (std::uint64_t round = 1; round <= kRounds; ++round) {
    const std::size_t ops = 1 + rng.NextIndex(2);
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.NextIndex(2) == 0 && table.size() > 2) {
        std::size_t idx = rng.NextIndex(table.slot_count());
        while (!table.IsLive(idx)) idx = rng.NextIndex(table.slot_count());
        table.Erase(idx);
      } else {
        table.Insert({RandomPattern(rng, kWidth),
                      static_cast<std::uint32_t>(round),
                      static_cast<std::int32_t>(rng.NextIndex(4))});
      }
    }
    live.assign(table.slot_count(), false);
    for (std::size_t i = 0; i < table.slot_count(); ++i) {
      live[i] = table.IsLive(i);
    }
    for (std::size_t k = 0; k < kProbes; ++k) {
      expected[round][k] = NaiveSearch(table.entries(), live, keys[k]);
    }
    table.Commit();
    std::this_thread::yield();  // let readers interleave with the churn
  }
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();

  EXPECT_EQ(table.epoch(), kRounds);
  for (std::size_t r = 0; r < kReaders; ++r) {
    EXPECT_GT(reports[r].iterations, 0u) << "reader " << r << " starved";
    EXPECT_EQ(reports[r].wrong_results, 0u) << "reader " << r;
    EXPECT_EQ(reports[r].epoch_out_of_bracket, 0u) << "reader " << r;
    EXPECT_EQ(reports[r].epoch_went_backwards, 0u) << "reader " << r;
  }
}

// --------------------------------------------- SwitchGroup bit-identity

TEST(SwitchGroupTest, SinglePortMatchesSoloSwitch) {
  const SwitchConfig config = GroupConfig();
  CognitiveSwitch solo(config);
  InstallTables(solo);

  SwitchGroup group(1, config);
  InstallTables(group);
  group.Commit();

  const auto mix = MakeTrafficMix(512, 77);
  constexpr std::size_t kBatch = 32;
  double now_s = 0.0;
  for (std::size_t off = 0; off < mix.size(); off += kBatch) {
    const std::size_t n = std::min(kBatch, mix.size() - off);
    std::vector<net::Packet> chunk(mix.begin() + static_cast<long>(off),
                                   mix.begin() + static_cast<long>(off + n));
    solo.InjectBatch(std::span<const net::Packet>(mix).subspan(off, n),
                     now_s);
    group.Submit(0, std::move(chunk), now_s);
    now_s += 1.0e-4;
  }
  group.WaitIdle();

  const auto solo_out = solo.Drain(now_s + 1.0);
  const auto port_out = group.device(0).Drain(now_s + 1.0);
  EXPECT_EQ(solo_out.size(), port_out.size());

  ExpectStatsEq(group.AggregateStats(), solo.stats());
  EXPECT_DOUBLE_EQ(TotalEnergyJ(group), solo.ledger().TotalJ());
}

TEST(SwitchGroupTest, FourPortsMatchFourSoloSwitches) {
  const SwitchConfig config = GroupConfig();
  constexpr std::size_t kPorts = 4;

  std::vector<std::unique_ptr<CognitiveSwitch>> solos;
  for (std::size_t p = 0; p < kPorts; ++p) {
    solos.push_back(std::make_unique<CognitiveSwitch>(config));
    InstallTables(*solos.back());
  }
  SwitchGroup group(kPorts, config);
  InstallTables(group);
  group.Commit();

  std::vector<std::vector<net::Packet>> streams;
  for (std::size_t p = 0; p < kPorts; ++p) {
    streams.push_back(MakeTrafficMix(256, 1000 + p));
  }
  constexpr std::size_t kBatch = 64;
  double now_s = 0.0;
  for (std::size_t off = 0; off < 256; off += kBatch) {
    for (std::size_t p = 0; p < kPorts; ++p) {
      solos[p]->InjectBatch(
          std::span<const net::Packet>(streams[p]).subspan(off, kBatch),
          now_s);
      std::vector<net::Packet> chunk(
          streams[p].begin() + static_cast<long>(off),
          streams[p].begin() + static_cast<long>(off + kBatch));
      group.Submit(p, std::move(chunk), now_s);
    }
    now_s += 1.0e-4;
  }
  group.WaitIdle();

  SwitchStats want;
  double want_j = 0.0;
  for (std::size_t p = 0; p < kPorts; ++p) {
    // Per-port bit-identity first: attribution stays exact per port.
    ExpectStatsEq(group.device(p).stats(), solos[p]->stats());
    EXPECT_DOUBLE_EQ(group.device(p).ledger().TotalJ(),
                     solos[p]->ledger().TotalJ());
    const SwitchStats& s = solos[p]->stats();
    want.injected += s.injected;
    want.forwarded += s.forwarded;
    want.parse_errors += s.parse_errors;
    want.firewall_denies += s.firewall_denies;
    want.no_route += s.no_route;
    want.aqm_drops += s.aqm_drops;
    want.queue_full += s.queue_full;
    want.delivered += s.delivered;
    want_j += solos[p]->ledger().TotalJ();
  }
  ExpectStatsEq(group.AggregateStats(), want);
  EXPECT_DOUBLE_EQ(TotalEnergyJ(group), want_j);
}

// Same 4-port bit-identity contract, but over a 1024-rule firewall that
// compiles to the pruned match tier: the tier (and its SIMD kernels)
// must not perturb verdicts, stats, or energy attribution anywhere in
// the concurrent runtime.
TEST(SwitchGroupTest, FourPortsMatchFourSolosWithPrunedFirewall) {
  const SwitchConfig config = GroupConfig();
  constexpr std::size_t kPorts = 4;

  std::vector<std::unique_ptr<CognitiveSwitch>> solos;
  for (std::size_t p = 0; p < kPorts; ++p) {
    solos.push_back(std::make_unique<CognitiveSwitch>(config));
    InstallLargeTables(*solos.back());
  }
  SwitchGroup group(kPorts, config);
  InstallLargeTables(group);
  group.Commit();

  std::vector<std::vector<net::Packet>> streams;
  for (std::size_t p = 0; p < kPorts; ++p) {
    streams.push_back(MakeTrafficMix(256, 2000 + p));
  }
  constexpr std::size_t kBatch = 64;
  double now_s = 0.0;
  for (std::size_t off = 0; off < 256; off += kBatch) {
    for (std::size_t p = 0; p < kPorts; ++p) {
      solos[p]->InjectBatch(
          std::span<const net::Packet>(streams[p]).subspan(off, kBatch),
          now_s);
      std::vector<net::Packet> chunk(
          streams[p].begin() + static_cast<long>(off),
          streams[p].begin() + static_cast<long>(off + kBatch));
      group.Submit(p, std::move(chunk), now_s);
    }
    now_s += 1.0e-4;
  }
  group.WaitIdle();

  // The rule set must actually have engaged the pruned tier, or this
  // test degenerates into the plain 4-port one.
  const FirewallStage* fw = nullptr;
  for (const auto& stage : solos[0]->graph().stages()) {
    if (stage->name() == "firewall") {
      fw = dynamic_cast<const FirewallStage*>(stage.get());
    }
  }
  ASSERT_NE(fw, nullptr);
  ASSERT_EQ(fw->table().snapshot()->engine.tier(),
            tcam::TcamMatchTier::kPruned);

  SwitchStats want;
  double want_j = 0.0;
  for (std::size_t p = 0; p < kPorts; ++p) {
    ExpectStatsEq(group.device(p).stats(), solos[p]->stats());
    EXPECT_DOUBLE_EQ(group.device(p).ledger().TotalJ(),
                     solos[p]->ledger().TotalJ());
    const SwitchStats& s = solos[p]->stats();
    want.injected += s.injected;
    want.forwarded += s.forwarded;
    want.parse_errors += s.parse_errors;
    want.firewall_denies += s.firewall_denies;
    want.no_route += s.no_route;
    want.aqm_drops += s.aqm_drops;
    want.queue_full += s.queue_full;
    want.delivered += s.delivered;
    want_j += solos[p]->ledger().TotalJ();
  }
  ExpectStatsEq(group.AggregateStats(), want);
  EXPECT_DOUBLE_EQ(TotalEnergyJ(group), want_j);
}

// Delta commits landing between batch rounds of live 4-port traffic:
// with the 1024-rule ACL the shared firewall is far past the delta
// policy's min_rows, so the controller's per-round rule churn publishes
// patched snapshots, not recompiles. Every port must stay bit-identical
// to a solo switch fed the same stream with the same mirrored mutations
// (the solo's owned tables commit the identical staged sets at its own
// batch boundaries).
TEST(SwitchGroupTest, DeltaCommitsUnderTrafficMatchSoloSwitches) {
  const SwitchConfig config = GroupConfig();
  constexpr std::size_t kPorts = 4;
  constexpr std::size_t kPackets = 320;
  constexpr std::size_t kBatch = 64;

  std::vector<std::unique_ptr<CognitiveSwitch>> solos;
  for (std::size_t p = 0; p < kPorts; ++p) {
    solos.push_back(std::make_unique<CognitiveSwitch>(config));
    InstallLargeTables(*solos.back());
  }
  SwitchGroup group(kPorts, config);
  InstallLargeTables(group);
  group.Commit();

  std::vector<std::vector<net::Packet>> streams;
  for (std::size_t p = 0; p < kPorts; ++p) {
    streams.push_back(MakeTrafficMix(kPackets, 3000 + p));
  }

  RandomStream rng(0xDE17A);
  std::vector<std::size_t> churn_rules;   // erasable: added during churn
  std::vector<std::size_t> churn_routes;  // withdrawable likewise
  double now_s = 0.0;
  for (std::size_t off = 0; off < kPackets; off += kBatch) {
    for (std::size_t p = 0; p < kPorts; ++p) {
      solos[p]->InjectBatch(
          std::span<const net::Packet>(streams[p]).subspan(off, kBatch),
          now_s);
      std::vector<net::Packet> chunk(
          streams[p].begin() + static_cast<long>(off),
          streams[p].begin() + static_cast<long>(off + kBatch));
      group.Submit(p, std::move(chunk), now_s);
    }
    // Quiesce so the commit lands on a deterministic batch boundary:
    // this round's batches saw the old snapshot, the next round's see
    // the patched one — exactly what the solos' auto-commit does.
    group.WaitIdle();

    // Mirrored control-plane churn. Identical mutation sequences mean
    // the group and every solo assign identical stable indices.
    for (std::size_t op = 0; op < 2; ++op) {
      FirewallPattern deny;
      deny.dst_port = static_cast<std::uint16_t>(700 + rng.NextIndex(16));
      deny.any_dst_port = false;
      const std::size_t rule = group.AddFirewallRule(deny, false, 5);
      for (auto& solo : solos) {
        EXPECT_EQ(solo->AddFirewallRule(deny, false, 5), rule);
      }
      churn_rules.push_back(rule);
    }
    if (churn_rules.size() > 2 && rng.NextIndex(2) == 0) {
      const std::size_t pick = rng.NextIndex(churn_rules.size());
      const std::size_t rule = churn_rules[pick];
      churn_rules.erase(churn_rules.begin() + static_cast<long>(pick));
      group.EraseFirewallRule(rule);
      for (auto& solo : solos) solo->EraseFirewallRule(rule);
    }
    const auto octet = static_cast<std::uint32_t>(rng.NextIndex(16));
    const auto out_port =
        static_cast<std::size_t>(rng.NextIndex(config.port_count));
    const std::size_t route =
        group.AddRoute(net::ParseIpv4("10.0.1.0") + octet, 28, out_port);
    for (auto& solo : solos) {
      EXPECT_EQ(solo->AddRoute(net::ParseIpv4("10.0.1.0") + octet, 28,
                               out_port),
                route);
    }
    churn_routes.push_back(route);
    if (churn_routes.size() > 1 && rng.NextIndex(2) == 0) {
      const std::size_t pick = rng.NextIndex(churn_routes.size());
      const std::size_t idx = churn_routes[pick];
      churn_routes.erase(churn_routes.begin() + static_cast<long>(pick));
      group.WithdrawRoute(idx);
      for (auto& solo : solos) solo->WithdrawRoute(idx);
    }
    group.Commit();  // the solos commit at their next InjectBatch
    now_s += 1.0e-4;
  }
  group.WaitIdle();

  // The churn must actually have taken the firewall's patch path, or
  // this is just the plain 4-port bit-identity test again.
  EXPECT_GT(group.tables().firewall.commit_stats().delta_commits, 0u);

  SwitchStats want;
  double want_j = 0.0;
  for (std::size_t p = 0; p < kPorts; ++p) {
    ExpectStatsEq(group.device(p).stats(), solos[p]->stats());
    EXPECT_DOUBLE_EQ(group.device(p).ledger().TotalJ(),
                     solos[p]->ledger().TotalJ());
    const SwitchStats& s = solos[p]->stats();
    want.injected += s.injected;
    want.forwarded += s.forwarded;
    want.parse_errors += s.parse_errors;
    want.firewall_denies += s.firewall_denies;
    want.no_route += s.no_route;
    want.aqm_drops += s.aqm_drops;
    want.queue_full += s.queue_full;
    want.delivered += s.delivered;
    want_j += solos[p]->ledger().TotalJ();
  }
  ExpectStatsEq(group.AggregateStats(), want);
  EXPECT_DOUBLE_EQ(TotalEnergyJ(group), want_j);
}

// ------------------------------------------------- port ingress semantics

TEST(SwitchGroupTest, SharedModeRejectsLocalTableMutations) {
  SwitchGroup group(1, GroupConfig());
  EXPECT_THROW(group.device(0).AddRoute(net::ParseIpv4("10.0.0.0"), 24, 0),
               std::logic_error);
  EXPECT_THROW(group.device(0).AddFirewallRule(FirewallPattern{}, true, 1),
               std::logic_error);
}

// A port without the group's tables could never see a rule or route:
// every packet would end as kNoRoute. Construction must fail instead.
TEST(SwitchGroupTest, PortRuntimeRejectsNullTables) {
  EXPECT_THROW(PortRuntime(GroupConfig(), nullptr), std::invalid_argument);
}

TEST(SwitchGroupTest, CommandsApplyAtBatchBoundariesInOrder) {
  SwitchGroup group(1, GroupConfig());
  InstallTables(group);
  group.Commit();

  std::vector<net::Packet> first;
  for (int i = 0; i < 32; ++i) {
    first.push_back(MakeUdpPacket("1.1.0.1", "10.0.0.1", 1024, 53));
  }
  std::vector<net::Packet> second;
  for (int i = 0; i < 16; ++i) {
    second.push_back(MakeUdpPacket("1.1.0.2", "10.0.0.2", 1024, 53));
  }

  std::uint64_t injected_at_command = 0;
  group.Submit(0, std::move(first), 0.0);
  group.runtime(0).Apply([&injected_at_command](CognitiveSwitch& sw) {
    injected_at_command = sw.stats().injected;
  });
  group.Submit(0, std::move(second), 1.0e-4);
  group.WaitIdle();

  EXPECT_EQ(injected_at_command, 32u);  // after batch 1, before batch 2
  EXPECT_EQ(group.device(0).stats().injected, 48u);
}

// A port has one ingress ring at a time: while a producer's ring is
// attached, Submit would be a second producer on the worker's ring.
TEST(SwitchGroupTest, SubmitWhileRingAttachedThrows) {
  SwitchGroup group(1, GroupConfig());
  InstallTables(group);
  group.Commit();
  std::vector<net::Packet> batch;
  batch.push_back(MakeUdpPacket("1.1.0.1", "10.0.0.1", 1024, 53));

  PortRuntime::IngressRing ring(4);
  group.runtime(0).AttachRing(&ring);
  EXPECT_THROW(group.Submit(0, batch, 0.0), std::logic_error);
  group.runtime(0).DetachRing();

  group.Submit(0, std::move(batch), 1.0e-4);  // own ring again
  group.WaitIdle();
  EXPECT_EQ(group.device(0).stats().injected, 1u);
}

// A controller thread reprograms every port (ProgramAqmTarget) and
// queues commands while one submitter streams batches to all ports:
// command tickets are taken on a thread that does not submit. Nothing
// deadlocks, every batch is injected, and verdicts partition it.
TEST(SwitchGroupTest, ReprogramRacesSubmitter) {
  SwitchConfig config = GroupConfig();
  constexpr std::size_t kPorts = 2;
  constexpr std::size_t kBatches = 40;
  constexpr std::size_t kBatchSize = 16;
  SwitchGroup group(kPorts, config);
  InstallTables(group);
  group.Commit();

  std::thread submitter([&group] {
    double now_s = 0.0;
    for (std::size_t b = 0; b < kBatches; ++b) {
      for (std::size_t p = 0; p < kPorts; ++p) {
        group.Submit(p, MakeTrafficMix(kBatchSize, 9000 + b * kPorts + p),
                     now_s);
      }
      now_s += 1.0e-4;
    }
  });

  std::atomic<std::size_t> commands_ran{0};
  constexpr std::size_t kRounds = 30;
  for (std::size_t round = 0; round < kRounds; ++round) {
    const double scale = 1.0 + static_cast<double>(round % 3);
    group.ProgramAqmTarget(scale * config.aqm.target_delay_s,
                           config.aqm.max_deviation_s);
    for (std::size_t p = 0; p < kPorts; ++p) {
      group.runtime(p).Apply([&commands_ran](CognitiveSwitch&) {
        commands_ran.fetch_add(1, std::memory_order_relaxed);
      });
    }
    std::this_thread::yield();
  }

  submitter.join();
  group.WaitIdle();

  EXPECT_EQ(commands_ran.load(), kRounds * kPorts);
  const SwitchStats total = group.AggregateStats();
  EXPECT_EQ(total.injected, kPorts * kBatches * kBatchSize);
  EXPECT_EQ(total.forwarded + total.parse_errors + total.firewall_denies +
                total.no_route + total.aqm_drops + total.queue_full,
            total.injected);
}

TEST(SwitchGroupTest, AqmReprogramBroadcastsToEveryPort) {
  SwitchConfig config = GroupConfig();
  SwitchGroup group(2, config);
  InstallTables(group);
  group.Commit();

  group.ProgramAqmTarget(2.0 * config.aqm.target_delay_s,
                         config.aqm.max_deviation_s);
  std::vector<net::Packet> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(MakeUdpPacket("1.1.0.1", "10.0.0.1", 1024, 53));
  }
  group.Submit(0, batch, 0.0);
  group.Submit(1, std::move(batch), 0.0);
  group.WaitIdle();

  for (std::size_t p = 0; p < 2; ++p) {
    EXPECT_EQ(group.device(p).stats().injected, 8u);
    EXPECT_NE(group.device(p).port_aqm(0, 0), nullptr);
  }
}

TEST(SwitchGroupTest, CommitsBecomeVisibleToLaterBatches) {
  SwitchGroup group(1, GroupConfig());
  group.AddFirewallRule(FirewallPattern{}, true, 1);
  group.Commit();  // firewall live, routing table still empty

  std::vector<net::Packet> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(MakeUdpPacket("1.1.0.1", "10.0.0.1", 1024, 53));
  }
  group.Submit(0, batch, 0.0);
  group.WaitIdle();
  EXPECT_EQ(group.device(0).stats().no_route, 10u);

  group.AddRoute(net::ParseIpv4("10.0.0.0"), 24, 0);
  group.Commit();
  group.Submit(0, std::move(batch), 1.0e-3);
  group.WaitIdle();
  EXPECT_EQ(group.device(0).stats().no_route, 10u);  // unchanged
  EXPECT_EQ(group.device(0).stats().injected, 20u);
  EXPECT_GT(group.device(0).stats().forwarded, 0u);
}

// Controller churn concurrent with data-plane injection across ports.
// The strict invariant that survives arbitrary interleavings: verdicts
// partition `injected`, every submitted packet is accounted, and the
// run is race-free (the other TSan CI target).
TEST(SwitchGroupTest, ConcurrentCommitsWhilePortsInject) {
  SwitchConfig config = GroupConfig();
  constexpr std::size_t kPorts = 2;
  constexpr std::size_t kBatches = 40;
  constexpr std::size_t kBatchSize = 16;
  SwitchGroup group(kPorts, config);
  InstallTables(group);
  group.Commit();

  std::thread submitter([&group] {
    double now_s = 0.0;
    for (std::size_t b = 0; b < kBatches; ++b) {
      for (std::size_t p = 0; p < kPorts; ++p) {
        group.Submit(p, MakeTrafficMix(kBatchSize, 7000 + b * kPorts + p),
                     now_s);
      }
      now_s += 1.0e-4;
    }
  });

  // Controller: route/rule churn with commits racing the batches above.
  RandomStream rng(0xC0117);
  for (std::size_t round = 0; round < 60; ++round) {
    const auto octet = static_cast<std::uint32_t>(rng.NextIndex(16));
    group.AddRoute(net::ParseIpv4("10.0.1.0") + octet, 28,
                   rng.NextIndex(config.port_count));
    if (round % 3 == 0) {
      FirewallPattern deny;
      deny.dst_port = static_cast<std::uint16_t>(700 + rng.NextIndex(8));
      deny.any_dst_port = false;
      group.AddFirewallRule(deny, false, 5);
    }
    group.Commit();
    std::this_thread::yield();
  }

  submitter.join();
  group.WaitIdle();

  const SwitchStats total = group.AggregateStats();
  EXPECT_EQ(total.injected, kPorts * kBatches * kBatchSize);
  EXPECT_EQ(total.forwarded + total.parse_errors + total.firewall_denies +
                total.no_route + total.aqm_drops + total.queue_full,
            total.injected);
  EXPECT_GT(TotalEnergyJ(group), 0.0);
}

}  // namespace
}  // namespace analognf::arch
