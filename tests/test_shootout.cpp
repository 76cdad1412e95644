// Tests for the AQM shoot-out experiment grid (experiment_grid.{hpp,cpp})
// and the closed-loop packet-conservation invariant the grid relies on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include "analognf/aqm/pie.hpp"
#include "analognf/sim/closed_loop.hpp"
#include "analognf/sim/experiment_grid.hpp"

namespace analognf::sim {
namespace {

// A grid small enough for unit tests: two digital policies, one RTT,
// one congested load, two ECN fractions, short runs.
GridSpec TinySpec() {
  GridSpec spec;
  spec.policies = {AqmPolicyKind::kPie, AqmPolicyKind::kRed};
  spec.base_rtts_s = {0.020};
  spec.loads = {{"hot", 1.3, 4}};
  spec.ecn_fractions = {0.0, 1.0};
  spec.open_duration_s = 2.0;
  spec.open_warmup_s = 0.5;
  spec.closed_duration_s = 2.0;
  spec.closed_warmup_s = 0.5;
  return spec;
}

TEST(GridSpecTest, ValidateRejectsBadAxes) {
  GridSpec spec = TinySpec();
  spec.policies.clear();
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.ecn_fractions = {1.5};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.loads[0].label.clear();
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.loads[0].sources = 0;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.open_warmup_s = spec.open_duration_s;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.base_rtts_s = {0.0};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  // Non-finite values: each would reach an integer cast or a run that
  // never ends.
  const double nan = std::nan("");
  const double inf = std::numeric_limits<double>::infinity();
  spec = TinySpec();
  spec.ecn_fractions = {nan};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.base_rtts_s = {1.0e300};  // finite, but its buffer overflows uint64
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.open_duration_s = inf;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.base_rtts_s = {inf};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.loads[0].offered_fraction = nan;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  // The new axes: variant labels, ages and the arrival template.
  spec = TinySpec();
  spec.variants = {{"", {}}};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.variants = {{"a", {}}, {"a", {}}};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.variants = {{"aged", {}, -1.0}};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.variants = {{"aged", {}, inf}};
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.loads[0].arrivals.burst_factor = 0.0;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  spec = TinySpec();
  spec.loads[0].arrivals.mean_calm_dwell_s = nan;
  EXPECT_THROW(spec.Validate(), std::invalid_argument);

  EXPECT_NO_THROW(TinySpec().Validate());
  EXPECT_NO_THROW(GridSpec::Default().Validate());
}

TEST(GridSpecTest, DefaultGridMeetsShootoutFloor) {
  const GridSpec spec = GridSpec::Default();
  // The ISSUE floor: >= 3 policies x >= 2 RTTs x >= 2 loads x >= 2 ECN
  // fractions, on both simulators.
  EXPECT_GE(spec.policies.size(), 3u);
  EXPECT_GE(spec.base_rtts_s.size(), 2u);
  EXPECT_GE(spec.loads.size(), 2u);
  EXPECT_GE(spec.ecn_fractions.size(), 2u);
  EXPECT_EQ(spec.CellCount(), spec.policies.size() *
                                  spec.base_rtts_s.size() *
                                  spec.loads.size() *
                                  spec.ecn_fractions.size() * 2);
}

TEST(GridTest, RunsEveryCellWithPopulatedMetrics) {
  ExperimentGrid grid(TinySpec());
  std::size_t callbacks = 0;
  grid.SetCellCallback([&](const GridCellResult&) { ++callbacks; });
  const GridReport report = grid.Run();

  EXPECT_EQ(report.cells.size(), TinySpec().CellCount());
  EXPECT_EQ(callbacks, report.cells.size());
  for (const GridCellResult& cell : report.cells) {
    SCOPED_TRACE(std::string(ToString(cell.policy)) + "/" +
                 ToString(cell.simulator));
    EXPECT_GE(cell.adherence, 0.0);
    EXPECT_LE(cell.adherence, 1.0);
    EXPECT_GE(cell.p99_sojourn_s, cell.p50_sojourn_s);
    EXPECT_GE(cell.utilization, 0.0);
    EXPECT_LE(cell.utilization, 1.0);
    EXPECT_GT(cell.fairness, 0.0);
    EXPECT_LE(cell.fairness, 1.0 + 1e-12);
    EXPECT_GT(cell.offered_packets, 0u);
    EXPECT_GT(cell.delivered_packets, 0u);
    EXPECT_LE(cell.delivered_packets, cell.offered_packets);
    // Digital policies are metered through the data-movement harness:
    // every cell must report decisions and a nonzero energy figure.
    EXPECT_GT(cell.decisions, 0u);
    EXPECT_GT(cell.energy_nj_per_decision, 0.0);
  }
  // At 1.3x offered load the open-loop cells must be shedding traffic.
  for (const GridCellResult& cell : report.cells) {
    if (cell.simulator == GridSimulator::kOpenLoop &&
        cell.ecn_fraction == 0.0) {
      EXPECT_GT(cell.drop_rate, 0.0);
    }
  }
}

TEST(GridTest, DeterministicAcrossRuns) {
  const GridReport a = ExperimentGrid(TinySpec()).Run();
  const GridReport b = ExperimentGrid(TinySpec()).Run();
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    EXPECT_EQ(a.cells[i].adherence, b.cells[i].adherence) << i;
    EXPECT_EQ(a.cells[i].offered_packets, b.cells[i].offered_packets) << i;
    EXPECT_EQ(a.cells[i].dropped_packets, b.cells[i].dropped_packets) << i;
    EXPECT_EQ(a.cells[i].marked_packets, b.cells[i].marked_packets) << i;
    EXPECT_EQ(a.cells[i].energy_nj_per_decision,
              b.cells[i].energy_nj_per_decision)
        << i;
  }
}

TEST(GridTest, EcnAxisChangesMarkBehaviour) {
  const GridReport report = ExperimentGrid(TinySpec()).Run();
  for (const GridCellResult& cell : report.cells) {
    if (cell.ecn_fraction == 0.0) {
      EXPECT_EQ(cell.marked_packets, 0u)
          << ToString(cell.policy) << "/" << ToString(cell.simulator);
    }
  }
  // PIE at full ECN marks instead of dropping below mark_ecnth; at 1.3x
  // load on either simulator some marks must appear.
  bool pie_marked = false;
  for (const GridCellResult& cell : report.cells) {
    if (cell.policy == AqmPolicyKind::kPie && cell.ecn_fraction == 1.0 &&
        cell.marked_packets > 0) {
      pie_marked = true;
    }
  }
  EXPECT_TRUE(pie_marked);
}

TEST(GridTest, AnalogCellsReportLedgerEnergy) {
  GridSpec spec = TinySpec();
  spec.policies = {AqmPolicyKind::kAnalog, AqmPolicyKind::kPie};
  spec.ecn_fractions = {0.5};
  const GridReport report = ExperimentGrid(spec).Run();
  double analog_nj = 0.0;
  double pie_nj = 0.0;
  for (const GridCellResult& cell : report.cells) {
    if (cell.policy == AqmPolicyKind::kAnalog) {
      EXPECT_GT(cell.decisions, 0u);
      EXPECT_GT(cell.energy_nj_per_decision, 0.0);
      analog_nj += cell.energy_nj_per_decision;
    } else {
      pie_nj += cell.energy_nj_per_decision;
    }
  }
  // The paper's point, as a regression: analog per-decision energy sits
  // well below the digital controller's data-movement cost.
  EXPECT_LT(analog_nj, pie_nj);

  // Margin accessors are wired to the same cells.
  const double analog_adh = report.MeanAdherence(
      AqmPolicyKind::kAnalog, GridSimulator::kOpenLoop, "hot");
  const double pie_adh = report.MeanAdherence(
      AqmPolicyKind::kPie, GridSimulator::kOpenLoop, "hot");
  ASSERT_GE(analog_adh, 0.0);
  ASSERT_GE(pie_adh, 0.0);
  EXPECT_DOUBLE_EQ(
      report.AdherenceMargin(GridSimulator::kOpenLoop, "hot"),
      analog_adh - pie_adh);
  EXPECT_EQ(report.MeanAdherence(AqmPolicyKind::kPie,
                                 GridSimulator::kOpenLoop, "no-such-load"),
            -1.0);
}

// Every field of two cells, compared exactly.
void ExpectSameCell(const GridCellResult& a, const GridCellResult& b) {
  EXPECT_EQ(a.policy, b.policy);
  EXPECT_EQ(a.simulator, b.simulator);
  EXPECT_EQ(a.base_rtt_s, b.base_rtt_s);
  EXPECT_EQ(a.load.label, b.load.label);
  EXPECT_EQ(a.ecn_fraction, b.ecn_fraction);
  EXPECT_EQ(a.adherence, b.adherence);
  EXPECT_EQ(a.mean_sojourn_s, b.mean_sojourn_s);
  EXPECT_EQ(a.p50_sojourn_s, b.p50_sojourn_s);
  EXPECT_EQ(a.p99_sojourn_s, b.p99_sojourn_s);
  EXPECT_EQ(a.drop_rate, b.drop_rate);
  EXPECT_EQ(a.mark_rate, b.mark_rate);
  EXPECT_EQ(a.fairness, b.fairness);
  EXPECT_EQ(a.utilization, b.utilization);
  EXPECT_EQ(a.offered_packets, b.offered_packets);
  EXPECT_EQ(a.delivered_packets, b.delivered_packets);
  EXPECT_EQ(a.dropped_packets, b.dropped_packets);
  EXPECT_EQ(a.marked_packets, b.marked_packets);
  EXPECT_EQ(a.decisions, b.decisions);
  EXPECT_EQ(a.energy_nj_per_decision, b.energy_nj_per_decision);
}

TEST(GridVariantTest, ReferenceVariantReproducesTheVariantFreeGrid) {
  GridSpec plain = TinySpec();
  plain.policies = {AqmPolicyKind::kAnalog, AqmPolicyKind::kPie};
  plain.ecn_fractions = {0.5};
  GridSpec varied = plain;
  varied.variants = {
      {"ref", {}},
      {"orders=0", [](aqm::AnalogAqmConfig& c) { c.derivative_orders = 0; }}};

  const GridReport a = ExperimentGrid(plain).Run();
  const GridReport b = ExperimentGrid(varied).Run();
  EXPECT_EQ(a.cells.size(), plain.CellCount());
  EXPECT_EQ(b.cells.size(), varied.CellCount());
  // Only the analog cells fan out: 2 variants + 1 PIE, x 2 simulators.
  ASSERT_EQ(b.cells.size(), 6u);

  std::size_t matched = 0;
  for (const GridCellResult& cell : b.cells) {
    if (cell.policy != AqmPolicyKind::kAnalog) {
      EXPECT_EQ(cell.variant, "");
      continue;
    }
    EXPECT_TRUE(cell.variant == "ref" || cell.variant == "orders=0");
    if (cell.variant != "ref") continue;
    for (const GridCellResult& base : a.cells) {
      if (base.policy == cell.policy && base.simulator == cell.simulator) {
        SCOPED_TRACE(ToString(cell.simulator));
        EXPECT_EQ(base.variant, "");
        ExpectSameCell(base, cell);
        ++matched;
      }
    }
  }
  EXPECT_EQ(matched, 2u);

  // The variants share the cell seed, so they see the same arrivals.
  std::uint64_t offered[2] = {0, 0};
  for (const GridCellResult& cell : b.cells) {
    if (cell.policy == AqmPolicyKind::kAnalog &&
        cell.simulator == GridSimulator::kOpenLoop) {
      offered[cell.variant == "ref" ? 0 : 1] = cell.offered_packets;
    }
  }
  EXPECT_GT(offered[0], 0u);
  EXPECT_EQ(offered[0], offered[1]);
}

TEST(GridVariantTest, LearnedCellsReportEnergyAndStayOutOfTheMargin) {
  GridSpec spec = TinySpec();
  spec.policies = {AqmPolicyKind::kAnalog, AqmPolicyKind::kPie};
  spec.ecn_fractions = {0.0};
  const GridReport without = ExperimentGrid(spec).Run();
  spec.policies.push_back(AqmPolicyKind::kLearned);
  const GridReport with = ExperimentGrid(spec).Run();
  EXPECT_EQ(with.cells.size(), spec.CellCount());

  std::size_t learned = 0;
  for (const GridCellResult& cell : with.cells) {
    if (cell.policy != AqmPolicyKind::kLearned) continue;
    ++learned;
    EXPECT_GT(cell.decisions, 0u);
    EXPECT_GT(cell.energy_nj_per_decision, 0.0);
  }
  EXPECT_EQ(learned, 2u);
  EXPECT_FALSE(IsDigital(AqmPolicyKind::kLearned));
  EXPECT_STREQ(ToString(AqmPolicyKind::kLearned), "learned");
  for (GridSimulator simulator :
       {GridSimulator::kOpenLoop, GridSimulator::kClosedLoop}) {
    EXPECT_EQ(with.AdherenceMargin(simulator, "hot"),
              without.AdherenceMargin(simulator, "hot"));
  }
}

TEST(GridVariantTest, MmppArrivalsOfferMoreThanPoissonAtTheSameFraction) {
  GridSpec spec = TinySpec();
  spec.policies = {AqmPolicyKind::kTailDrop};
  spec.ecn_fractions = {0.0};
  GridLoad mmpp = spec.loads[0];
  mmpp.label = "mmpp";
  mmpp.arrivals.process = net::ArrivalConfig::Process::kMmpp;
  mmpp.arrivals.burst_factor = 4.0;
  mmpp.arrivals.mean_calm_dwell_s = 0.2;
  mmpp.arrivals.mean_burst_dwell_s = 0.1;
  spec.loads.push_back(mmpp);
  const GridReport report = ExperimentGrid(spec).Run();

  std::uint64_t poisson_offered = 0;
  std::uint64_t mmpp_offered = 0;
  for (const GridCellResult& cell : report.cells) {
    if (cell.simulator != GridSimulator::kOpenLoop) continue;
    (cell.load.label == "mmpp" ? mmpp_offered : poisson_offered) =
        cell.offered_packets;
  }
  EXPECT_GT(poisson_offered, 0u);
  EXPECT_GT(mmpp_offered, poisson_offered);
}

// FNV-1a over the raw bytes of every GridCellResult field, in order.
class CellDigest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (const unsigned char b : bytes) Mix(b);
  }
  void Add(const std::string& text) {
    Add(text.size());
    for (const char c : text) Mix(static_cast<unsigned char>(c));
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Mix(unsigned char b) {
    hash_ = (hash_ ^ b) * 0x100000001b3ULL;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Golden digest of a reduced grid: all five shoot-out policies on both
// simulators, two RTTs, both loads and ECN settings, 2 s cells. Any
// change to the event calendar, the simulators, the policies or the cell
// statistics that moves a single bit of a single field changes it. The
// expected value was recorded with the earlier std::function event
// calendar; the typed calendar reproduces it.
TEST(GridTest, GoldenDigestOfReducedGrid) {
  GridSpec spec = GridSpec::Default();
  spec.base_rtts_s = {0.010, 0.100};
  spec.ecn_fractions = {0.0, 1.0};
  spec.open_duration_s = spec.closed_duration_s = 2.0;
  spec.open_warmup_s = spec.closed_warmup_s = 0.5;
  ASSERT_EQ(spec.policies.size(), 5u);
  const GridReport report = ExperimentGrid(spec).Run();
  ASSERT_EQ(report.cells.size(), 80u);

  CellDigest digest;
  for (const GridCellResult& cell : report.cells) {
    digest.Add(cell.policy);
    digest.Add(cell.simulator);
    digest.Add(cell.base_rtt_s);
    digest.Add(cell.load.label);
    digest.Add(cell.load.offered_fraction);
    digest.Add(cell.load.sources);
    digest.Add(cell.ecn_fraction);
    digest.Add(cell.adherence);
    digest.Add(cell.mean_sojourn_s);
    digest.Add(cell.p50_sojourn_s);
    digest.Add(cell.p99_sojourn_s);
    digest.Add(cell.drop_rate);
    digest.Add(cell.mark_rate);
    digest.Add(cell.fairness);
    digest.Add(cell.utilization);
    digest.Add(cell.offered_packets);
    digest.Add(cell.delivered_packets);
    digest.Add(cell.dropped_packets);
    digest.Add(cell.marked_packets);
    digest.Add(cell.decisions);
    digest.Add(cell.energy_nj_per_decision);
  }
  EXPECT_EQ(digest.value(), 0xd001b69bc573434fULL);
}

TEST(GridTest, PolicyKindNames) {
  EXPECT_STREQ(ToString(AqmPolicyKind::kAnalog), "analog");
  EXPECT_STREQ(ToString(AqmPolicyKind::kPi2), "pi2");
  EXPECT_STREQ(ToString(GridSimulator::kOpenLoop), "open_loop");
  EXPECT_STREQ(ToString(GridSimulator::kClosedLoop), "closed_loop");
  EXPECT_FALSE(IsDigital(AqmPolicyKind::kAnalog));
  EXPECT_FALSE(IsDigital(AqmPolicyKind::kTailDrop));
  EXPECT_TRUE(IsDigital(AqmPolicyKind::kPie));
  EXPECT_TRUE(IsDigital(AqmPolicyKind::kCodel));
}

// ------------------------------------------------- conservation invariant

// Every offered packet must be accounted for at the end of a closed-loop
// run: delivered, dropped (AQM or tail), or still sitting in the queue.
// Holds exactly at every ECN fraction — marking must never lose packets.
TEST(ClosedLoopConservationTest, OfferedEqualsDeliveredPlusDroppedPlusResidual) {
  for (double ecn : {0.0, 0.5, 1.0}) {
    SCOPED_TRACE(ecn);
    ClosedLoopConfig config;
    config.sources = 6;
    config.base_rtt_s = 0.030;
    config.ecn_fraction = ecn;
    config.duration_s = 6.0;
    config.warmup_s = 1.0;
    config.queue.max_bytes = 40000;

    aqm::PieConfig pc;
    pc.drain_rate_bps = config.link_rate_bps;
    aqm::Pie pie(pc, 77);

    ClosedLoopSimulator simulator(config, pie);
    const ClosedLoopReport report = simulator.Run();
    EXPECT_GT(report.link.offered_packets, 0u);
    EXPECT_EQ(report.link.offered_packets,
              report.link.delivered_packets + report.link.dropped_packets +
                  report.link.residual_packets);
    // Utilization is a fraction of capacity by contract.
    const double util =
        report.LinkUtilization(config.link_rate_bps, config.segment_bytes);
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);
  }
}

}  // namespace
}  // namespace analognf::sim
