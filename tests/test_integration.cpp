// Cross-module integration tests: the paper's experiments wired
// end-to-end — dataset -> pCAM -> AQM -> queue simulation -> energy
// comparison (the assertions behind EXPERIMENTS.md).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/aqm/controller.hpp"
#include "analognf/arch/controller.hpp"
#include "analognf/arch/switch.hpp"
#include "analognf/common/units.hpp"
#include "analognf/device/dataset.hpp"
#include "analognf/energy/reference.hpp"
#include "analognf/net/generator.hpp"
#include "analognf/sim/queue_sim.hpp"

namespace analognf {
namespace {

// ---------------------------------------------------- Table 1 pipeline

TEST(Integration, Table1PcamRowFromDataset) {
  // The Table 1 pCAM row (0.01 fJ/bit, 1 ns) must be derivable from the
  // synthetic dataset, not hardcoded.
  const device::MemristorDataset ds =
      device::MemristorDataset::Synthesize(device::SynthesisConfig{});
  const device::DatasetRecord cheapest = ds.CheapestReadAt(0.1);
  EXPECT_NEAR(ToFemtojoules(cheapest.read_energy_j), 0.01, 0.005);

  const double best_digital =
      energy::BestDigitalDesign().energy_lo_j_per_bit;
  EXPECT_GE(best_digital / cheapest.read_energy_j, 50.0);
}

// ------------------------------------------------------ Fig. 7 sweeps

TEST(Integration, Fig7aTransferSweepOverDataset) {
  // PDP vs input over [1, 4] V for the sojourn stage, device-backed.
  // A fine state ladder keeps threshold-snapping error below the sweep
  // resolution so the ideal ramp shape is assertable.
  aqm::AnalogAqmConfig config;
  config.hardware.state_levels = 4096;
  aqm::AnalogAqm policy(config);
  double prev = -1.0;
  bool saw_zero = false;
  bool saw_one = false;
  for (double v = 1.0; v <= 4.0; v += 0.05) {
    // Build the feature vector directly in voltage space: quiescent
    // derivatives, neutral buffer.
    std::vector<double> volts(policy.table().spec().read.size());
    volts[0] = v;
    for (std::size_t i = 1; i < volts.size(); ++i) {
      volts[i] = i == 4 ? 1.2 : -0.5;  // neutral buffer / derivatives
    }
    const double pdp = policy.EvaluatePdp(volts);
    EXPECT_GE(pdp, 0.0);
    EXPECT_LE(pdp, 1.0);
    EXPECT_GE(pdp, prev - 1e-9);  // monotone ramp
    prev = pdp;
    if (pdp < 0.01) saw_zero = true;
    if (pdp > 0.99) saw_one = true;
  }
  EXPECT_TRUE(saw_zero);
  EXPECT_TRUE(saw_one);
}

TEST(Integration, Fig7bDerivativeStageSweep) {
  // PDP modulation vs derivative input over [-2, 1] V.
  aqm::AnalogAqmConfig config;
  config.hardware.state_levels = 4096;
  aqm::AnalogAqm policy(config);
  std::vector<double> volts(policy.table().spec().read.size());
  volts[0] = 2.0;  // mid-ramp sojourn
  for (std::size_t i = 1; i < volts.size(); ++i) {
    volts[i] = i == 4 ? 1.2 : -0.5;
  }
  double low = 0.0;
  double high = 0.0;
  {
    auto v = volts;
    v[1] = -2.0;  // strongly draining
    low = policy.EvaluatePdp(v);
  }
  {
    auto v = volts;
    v[1] = 1.0;  // strongly building
    high = policy.EvaluatePdp(v);
  }
  EXPECT_LT(low, high);
}

// ---------------------------------------------------- Fig. 8 end-to-end

TEST(Integration, Fig8QueueManagementShape) {
  // Without AQM delays climb monotonically under overload; with the
  // pCAM AQM the delay is held near the programmed 20 ms +/- 10 ms.
  const auto run = [](bool with_aqm) {
    net::MetaSourceConfig mc;
    mc.arrivals.rate_pps = 1800.0;  // 144% of the 1250 pps the link can carry
    net::MetaSource source(mc, 99);
    sim::QueueSimConfig sc;
    sc.duration_s = 6.0;
    sc.warmup_s = 1.5;
    sc.link_rate_bps = 10.0e6;
    if (with_aqm) {
      aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
      sim::QueueSimulator s(sc, source, policy);
      return s.Run();
    }
    aqm::TailDropOnly policy;
    sim::QueueSimulator s(sc, source, policy);
    return s.Run();
  };

  const sim::SimReport without = run(false);
  const sim::SimReport with = run(true);

  // Shape assertions from the figure.
  EXPECT_GT(without.link.delay_stats.max(), 0.3);        // keeps increasing
  EXPECT_LT(with.link.delay_stats.mean(), 0.035);        // held near target
  EXPECT_GT(with.link.delay_stats.mean(), 0.004);
  EXPECT_GT(with.link.DelayFractionWithin(0.0, 0.035), 0.9);
  EXPECT_GT(with.queue_stats.dropped_aqm, 100u);
  EXPECT_EQ(without.queue_stats.dropped_aqm, 0u);
}

// ------------------------------------------------- architecture E2E

TEST(Integration, CognitiveSwitchEndToEnd) {
  arch::SwitchConfig sc;
  sc.port_count = 2;
  sc.port_rate_bps = 10.0e6;
  sc.enable_aqm = true;
  arch::CognitiveSwitch sw(sc);
  arch::CognitiveNetworkController controller(sw);

  controller.Place("ip-lookup", 32);
  controller.Place("aqm", 8);
  sw.AddRoute(net::ParseIpv4("10.0.0.0"), 8, 0);
  sw.AddRoute(net::ParseIpv4("20.0.0.0"), 8, 1);
  arch::FirewallPattern evil;
  evil.src_ip = net::ParseIpv4("66.0.0.0");
  evil.src_prefix_len = 8;
  controller.InstallFirewallDeny(evil, 10);

  net::EthernetHeader eth;
  eth.dst = {2, 0, 0, 0, 0, 1};
  eth.src = {2, 0, 0, 0, 0, 2};
  auto make = [&](const std::string& src, const std::string& dst) {
    net::Ipv4Header ip;
    ip.src_ip = net::ParseIpv4(src);
    ip.dst_ip = net::ParseIpv4(dst);
    ip.protocol = net::kIpProtoUdp;
    net::UdpHeader udp;
    udp.src_port = 1000;
    udp.dst_port = 2000;
    return net::PacketBuilder()
        .Ethernet(eth)
        .Ipv4(ip)
        .Udp(udp)
        .Payload(960)
        .Build();
  };

  int forwarded = 0;
  int denied = 0;
  int aqm_dropped = 0;
  for (int i = 0; i < 3000; ++i) {
    const double now = i * 0.00025;  // 4000 pps, ~1800 pps per port
    const auto src = (i % 10 == 0) ? "66.1.1.1" : "8.8.8.8";
    const auto dst = (i % 2 == 0) ? "10.0.0.5" : "20.0.0.5";
    const arch::Verdict v = sw.Inject(make(src, dst), now);
    if (v == arch::Verdict::kForwarded) ++forwarded;
    if (v == arch::Verdict::kFirewallDeny) ++denied;
    if (v == arch::Verdict::kAqmDrop) ++aqm_dropped;
    sw.Drain(now);
  }
  EXPECT_EQ(denied, 300);
  EXPECT_GT(forwarded, 1000);
  EXPECT_GT(aqm_dropped, 50);

  // Energy story: per-op analog search must be far cheaper than per-op
  // digital movement (the Fig. 1 argument), even though the digital side
  // of this tiny table workload is small in absolute terms.
  const auto& ledger = sw.ledger();
  const auto pcam = ledger.Of(energy::category::kPcamSearch);
  const auto movement = ledger.Of(energy::category::kDataMovement);
  ASSERT_GT(pcam.operations, 0u);
  ASSERT_GT(movement.operations, 0u);
  const double pcam_per_op =
      pcam.energy_j / static_cast<double>(pcam.operations);
  const double movement_per_op =
      movement.energy_j / static_cast<double>(movement.operations);
  EXPECT_LT(pcam_per_op, movement_per_op);
}

// ------------------------------------------- controller-in-the-loop

TEST(Integration, CognitiveControllerImprovesConformance) {
  // Run the Fig. 8 workload with a deliberately mis-programmed AQM
  // (target far above the achievable bound) and let the controller
  // adapt it back.
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = 1800.0;
  net::MetaSource source(mc, 7);
  sim::QueueSimConfig sc;
  sc.duration_s = 8.0;
  sc.warmup_s = 4.0;
  sc.link_rate_bps = 10.0e6;

  aqm::AnalogAqmConfig ac;
  aqm::AnalogAqm policy(ac);
  aqm::CognitiveAqmController controller(policy);
  sim::QueueSimulator s(sc, source, policy, &controller);
  const sim::SimReport report = s.Run();
  // The loop must have run and kept delays bounded.
  EXPECT_LT(report.link.delay_stats.mean(), 0.035);
}

// ----------------------------------------------------- determinism

TEST(Integration, WholeStackIsDeterministic) {
  const auto run = [] {
    device::SynthesisConfig dc;
    const device::MemristorDataset ds = device::MemristorDataset::Synthesize(dc);
    aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
    net::MetaSourceConfig mc;
    mc.arrivals.rate_pps = 1500.0;
    net::MetaSource source(mc, 5);
    sim::QueueSimConfig sc;
    sc.duration_s = 3.0;
    sc.warmup_s = 0.5;
    sim::QueueSimulator s(sc, source, policy);
    const sim::SimReport report = s.Run();
    return std::make_tuple(ds.ComputeEnvelope().min_energy_j,
                           report.link.delivered_packets,
                           report.link.delay_stats.mean(),
                           policy.ConsumedEnergyJ());
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace analognf
