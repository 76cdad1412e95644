// Tests for the paper's core contribution: the pCAM cell's five-region
// transfer function (Fig. 4a), the hardware-backed cell, series
// composition (Fig. 4b), tables, pipelines and the programming
// abstractions of Sec. 5.
#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "analognf/common/rng.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/core/pcam_array.hpp"
#include "analognf/core/pcam_cell.hpp"
#include "analognf/core/pcam_hardware.hpp"
#include "analognf/analog/crossbar.hpp"
#include "analognf/core/pipeline.hpp"
#include "analognf/core/program.hpp"

namespace analognf::core {
namespace {

PcamParams UnitTrapezoid() {
  return PcamParams::MakeTrapezoid(1.0, 2.0, 3.0, 4.0);
}

// -------------------------------------------------------------- params

TEST(PcamParamsTest, ValidatesOrdering) {
  PcamParams p = UnitTrapezoid();
  EXPECT_NO_THROW(p.Validate());
  p.m2 = 0.5;  // m2 < m1
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = UnitTrapezoid();
  p.m3 = 1.5;  // m3 < m2
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(PcamParamsTest, AllowsDegeneratePlateau) {
  // M2 == M3 (triangle) is legal.
  EXPECT_NO_THROW(PcamParams::MakeTrapezoid(0.0, 1.0, 1.0, 2.0).Validate());
}

TEST(PcamParamsTest, ValidatesRails) {
  PcamParams p = UnitTrapezoid();
  p.pmin = -0.1;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = UnitTrapezoid();
  p.pmin = 1.0;
  p.pmax = 0.5;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(PcamParamsTest, TrapezoidSlopesPreserveContinuity) {
  const PcamParams p = UnitTrapezoid();
  EXPECT_NEAR(p.sa, 1.0, 1e-12);   // (1-0)/(2-1)
  EXPECT_NEAR(p.sb, -1.0, 1e-12);  // (0-1)/(4-3)
}

TEST(PcamParamsTest, MakeBandIsSymmetric) {
  const PcamParams p = PcamParams::MakeBand(2.5, 0.1, 0.9);
  EXPECT_NEAR(p.m1, 1.5, 1e-12);
  EXPECT_NEAR(p.m2, 2.4, 1e-12);
  EXPECT_NEAR(p.m3, 2.6, 1e-12);
  EXPECT_NEAR(p.m4, 3.5, 1e-12);
  EXPECT_THROW(PcamParams::MakeBand(1.0, 0.1, 0.0), std::invalid_argument);
}

// ---------------------------------------------------------------- cell

TEST(PcamCellTest, FiveRegionOutputs) {
  const PcamCell cell(UnitTrapezoid());
  EXPECT_EQ(cell.Evaluate(0.5), 0.0);   // mismatch low
  EXPECT_EQ(cell.Evaluate(1.0), 0.0);   // boundary: <= M1
  EXPECT_NEAR(cell.Evaluate(1.5), 0.5, 1e-12);  // rising skirt
  EXPECT_EQ(cell.Evaluate(2.0), 1.0);   // boundary M2
  EXPECT_EQ(cell.Evaluate(2.5), 1.0);   // plateau
  EXPECT_EQ(cell.Evaluate(3.0), 1.0);   // boundary M3
  EXPECT_NEAR(cell.Evaluate(3.5), 0.5, 1e-12);  // falling skirt
  EXPECT_EQ(cell.Evaluate(4.0), 0.0);   // boundary: >= M4
  EXPECT_EQ(cell.Evaluate(9.0), 0.0);   // mismatch high
}

TEST(PcamCellTest, RegionClassification) {
  const PcamCell cell(UnitTrapezoid());
  EXPECT_EQ(cell.RegionOf(0.0), MatchRegion::kMismatchLow);
  EXPECT_EQ(cell.RegionOf(1.5), MatchRegion::kProbableRising);
  EXPECT_EQ(cell.RegionOf(2.5), MatchRegion::kMatch);
  EXPECT_EQ(cell.RegionOf(3.5), MatchRegion::kProbableFalling);
  EXPECT_EQ(cell.RegionOf(5.0), MatchRegion::kMismatchHigh);
  EXPECT_EQ(ToString(MatchRegion::kMatch), "match");
}

TEST(PcamCellTest, PaperExamplePolicy) {
  // RQ1's worked example: "for a stored policy of 2.5 V ... Match:
  // [2.4-2.6] V, Mismatch: [0-1.5] V, analog (0-1): (1.5-2.4) V".
  const PcamParams p =
      PcamParams::MakeTrapezoid(1.5, 2.4, 2.6, 3.5, 1.0, 0.0);
  const PcamCell cell(p);
  EXPECT_EQ(cell.Evaluate(1.0), 0.0);            // mismatch region
  EXPECT_EQ(cell.Evaluate(2.5), 1.0);            // deterministic match
  const double partial = cell.Evaluate(2.0);     // probable match
  EXPECT_GT(partial, 0.0);
  EXPECT_LT(partial, 1.0);
}

TEST(PcamCellTest, CustomRailsRespected) {
  const PcamParams p = PcamParams::MakeTrapezoid(0.0, 1.0, 2.0, 3.0,
                                                 /*pmax=*/1.5,
                                                 /*pmin=*/0.5);
  const PcamCell cell(p);
  EXPECT_EQ(cell.Evaluate(-1.0), 0.5);
  EXPECT_EQ(cell.Evaluate(1.5), 1.5);
  EXPECT_NEAR(cell.Evaluate(0.5), 1.0, 1e-12);  // midway up the skirt
}

TEST(PcamCellTest, OvershootingSlopeIsClamped) {
  PcamParams p = UnitTrapezoid();
  p.sa = 100.0;  // wildly steep rising edge
  const PcamCell cell(p);
  for (double v = 1.01; v < 2.0; v += 0.05) {
    const double out = cell.Evaluate(v);
    EXPECT_GE(out, p.pmin);
    EXPECT_LE(out, p.pmax);
  }
}

TEST(PcamCellTest, ProgramReplacesFunction) {
  PcamCell cell(UnitTrapezoid());
  cell.Program(PcamParams::MakeTrapezoid(10.0, 11.0, 12.0, 13.0));
  EXPECT_EQ(cell.Evaluate(2.5), 0.0);
  EXPECT_EQ(cell.Evaluate(11.5), 1.0);
}

// Property: for any trapezoid the transfer function is continuous and
// bounded by the rails.
class PcamCellProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PcamCellProperty, ContinuousAndBounded) {
  analognf::RandomStream rng(GetParam());
  const double m1 = -2.0 + 3.0 * rng.NextUniform();
  const double m2 = m1 + (0.1 + 0.9 * rng.NextUniform());
  const double m3 = m2 + rng.NextUniform();
  const double m4 = m3 + (0.1 + 0.9 * rng.NextUniform());
  const double pmin = 0.4 * rng.NextUniform();
  const double pmax = pmin + (0.1 + 0.9 * rng.NextUniform());
  const PcamCell cell(PcamParams::MakeTrapezoid(m1, m2, m3, m4, pmax, pmin));

  double prev = cell.Evaluate(m1 - 1.0);
  for (double v = m1 - 1.0; v <= m4 + 1.0; v += 0.002) {
    const double out = cell.Evaluate(v);
    EXPECT_GE(out, pmin - 1e-9);
    EXPECT_LE(out, pmax + 1e-9);
    // Continuity: small input step -> small output step (slope-bounded).
    const double max_slope =
        std::max(std::fabs((pmax - pmin) / (m2 - m1)),
                 std::fabs((pmax - pmin) / (m4 - m3)));
    EXPECT_LE(std::fabs(out - prev), max_slope * 0.002 + 1e-9);
    prev = out;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PcamCellProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

// Property: rising region is monotone non-decreasing, falling region
// monotone non-increasing.
TEST_P(PcamCellProperty, SkirtsAreMonotone) {
  analognf::RandomStream rng(GetParam() ^ 0xbeef);
  const double m1 = -2.0 + 3.0 * rng.NextUniform();
  const double m2 = m1 + (0.1 + 0.9 * rng.NextUniform());
  const double m3 = m2 + rng.NextUniform();
  const double m4 = m3 + (0.1 + 0.9 * rng.NextUniform());
  const PcamCell cell(PcamParams::MakeTrapezoid(m1, m2, m3, m4));
  double prev = cell.Evaluate(m1);
  for (double v = m1; v <= m2; v += (m2 - m1) / 50.0) {
    const double out = cell.Evaluate(v);
    EXPECT_GE(out, prev - 1e-9);
    prev = out;
  }
  prev = cell.Evaluate(m3);
  for (double v = m3; v <= m4; v += (m4 - m3) / 50.0) {
    const double out = cell.Evaluate(v);
    EXPECT_LE(out, prev + 1e-9);
    prev = out;
  }
}

// ------------------------------------------------------------ hardware

HardwarePcamConfig TestHardware() {
  HardwarePcamConfig config;
  config.state_levels = 256;
  return config;
}

TEST(HardwarePcamTest, ConfigValidates) {
  HardwarePcamConfig config = TestHardware();
  config.state_levels = 1;
  EXPECT_THROW(config.Validate(), std::invalid_argument);
}

TEST(HardwarePcamTest, IdealChannelMatchesIdealCellUpToQuantisation) {
  const PcamParams target = UnitTrapezoid();
  HardwarePcamCell hw(target, TestHardware());
  const PcamCell ideal(hw.effective_params());
  for (double v = 0.0; v <= 5.0; v += 0.1) {
    EXPECT_NEAR(hw.Evaluate(v).output, ideal.Evaluate(v), 1e-12);
  }
}

TEST(HardwarePcamTest, QuantisationSnapsThresholds) {
  HardwarePcamConfig config = TestHardware();
  config.state_levels = 8;  // coarse ladder over [-2, 4]
  const PcamParams target = UnitTrapezoid();
  HardwarePcamCell hw(target, config);
  const PcamParams& eff = hw.effective_params();
  // Thresholds moved to the ladder but the window ordering held.
  EXPECT_NE(eff.m2, target.m2);
  EXPECT_LE(eff.m2, eff.m3);
  // Skirt widths preserved.
  EXPECT_NEAR(eff.m2 - eff.m1, target.m2 - target.m1, 1e-12);
  EXPECT_NEAR(eff.m4 - eff.m3, target.m4 - target.m3, 1e-12);
}

TEST(HardwarePcamTest, FinerLadderSmallerSnapError) {
  const PcamParams target = UnitTrapezoid();
  HardwarePcamConfig coarse = TestHardware();
  coarse.state_levels = 8;
  HardwarePcamConfig fine = TestHardware();
  fine.state_levels = 1024;
  HardwarePcamCell hw_coarse(target, coarse);
  HardwarePcamCell hw_fine(target, fine);
  EXPECT_LE(std::fabs(hw_fine.effective_params().m2 - target.m2),
            std::fabs(hw_coarse.effective_params().m2 - target.m2) + 1e-12);
}

TEST(HardwarePcamTest, SearchEnergyPositiveAndAccumulates) {
  HardwarePcamCell hw(UnitTrapezoid(), TestHardware());
  const PcamEvalResult r1 = hw.Evaluate(2.5);
  EXPECT_GT(r1.energy_j, 0.0);
  const double after_one = hw.ConsumedSearchEnergyJ();
  hw.Evaluate(2.5);
  EXPECT_NEAR(hw.ConsumedSearchEnergyJ(), 2.0 * after_one, 1e-18);
  EXPECT_EQ(hw.searches(), 2u);
}

TEST(HardwarePcamTest, ZeroInputCostsNothing) {
  HardwarePcamCell hw(UnitTrapezoid(), TestHardware());
  EXPECT_EQ(hw.Evaluate(0.0).energy_j, 0.0);
}

TEST(HardwarePcamTest, ProgrammingEnergyCharged) {
  HardwarePcamCell hw(UnitTrapezoid(), TestHardware());
  const double initial = hw.ConsumedProgrammingEnergyJ();
  EXPECT_GT(initial, 0.0);  // construction programs the devices
  hw.Program(PcamParams::MakeTrapezoid(0.0, 0.5, 1.0, 1.5));
  EXPECT_GT(hw.ConsumedProgrammingEnergyJ(), initial);
}

TEST(HardwarePcamTest, NoisyChannelPerturbsOutput) {
  HardwarePcamConfig config = TestHardware();
  config.channel = analog::ChannelParams::Noisy(0.2);
  HardwarePcamCell hw(UnitTrapezoid(), config);
  // On a skirt, channel noise must show up as output variance.
  analognf::RunningStats stats;
  for (int i = 0; i < 500; ++i) stats.Add(hw.Evaluate(1.5).output);
  EXPECT_GT(stats.stddev(), 0.01);
  EXPECT_NEAR(stats.mean(), 0.5, 0.1);
}

TEST(HardwarePcamTest, DeviceVariationChangesEnergyNotLogic) {
  HardwarePcamConfig a = TestHardware();
  a.apply_device_variation = true;
  a.seed = 1;
  HardwarePcamConfig b = TestHardware();
  b.apply_device_variation = true;
  b.seed = 2;
  HardwarePcamCell cell_a(UnitTrapezoid(), a);
  HardwarePcamCell cell_b(UnitTrapezoid(), b);
  EXPECT_NE(cell_a.Evaluate(2.5).energy_j, cell_b.Evaluate(2.5).energy_j);
}

// ----------------------------------------------------------- word/table

TEST(PcamWordTest, ProductOfFields) {
  const std::vector<PcamParams> fields = {UnitTrapezoid(), UnitTrapezoid()};
  PcamWord word(fields, TestHardware());
  EXPECT_EQ(word.width(), 2u);
  // Both in plateau: product 1. One at half skirt: product ~0.5
  // (threshold snapping at 256 levels shifts skirts by up to ~0.012 V).
  EXPECT_NEAR(word.Evaluate({2.5, 2.5}).output, 1.0, 1e-9);
  EXPECT_NEAR(word.Evaluate({2.5, 1.5}).output, 0.5, 0.05);
  EXPECT_NEAR(word.Evaluate({1.5, 1.5}).output, 0.25, 0.05);
}

TEST(PcamWordTest, ArityChecked) {
  PcamWord word({UnitTrapezoid()}, TestHardware());
  EXPECT_THROW(word.Evaluate({1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(PcamWord({}, TestHardware()), std::invalid_argument);
}

TEST(PcamTableTest, BestRowWins) {
  PcamTable table(1, TestHardware());
  table.Insert({"low", {PcamParams::MakeBand(1.0, 0.2, 0.3)}, 10});
  table.Insert({"mid", {PcamParams::MakeBand(2.0, 0.2, 0.3)}, 20});
  table.Insert({"high", {PcamParams::MakeBand(3.0, 0.2, 0.3)}, 30});
  table.Commit();

  const auto result = table.Search({2.05});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->action, 20u);
  EXPECT_NEAR(result->match_degree, 1.0, 1e-9);
  EXPECT_EQ(table.last_degrees().size(), 3u);
}

TEST(PcamTableTest, PartialMatchStillRanksRows) {
  // RQ1: "identifying the closely matching stored policies for an
  // incoming query with zero [deterministic] matches".
  PcamTable table(1, TestHardware());
  table.Insert({"a", {PcamParams::MakeBand(1.0, 0.1, 0.5)}, 1});
  table.Insert({"b", {PcamParams::MakeBand(3.0, 0.1, 0.5)}, 2});
  table.Commit();
  const auto result = table.Search({1.4});  // on a's skirt, far from b
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->action, 1u);
  EXPECT_GT(result->match_degree, 0.0);
  EXPECT_LT(result->match_degree, 1.0);
}

TEST(PcamTableTest, EmptyTableReturnsNullopt) {
  PcamTable table(1, TestHardware());
  EXPECT_FALSE(table.Search({1.0}).has_value());
}

TEST(PcamTableTest, SampleByDegreeRespectsWeights) {
  PcamTable table(1, TestHardware());
  table.Insert({"a", {PcamParams::MakeBand(1.0, 0.5, 0.5)}, 1});
  table.Insert({"b", {PcamParams::MakeBand(9.0, 0.5, 0.5)}, 2});
  table.Commit();
  analognf::RandomStream rng(3);
  int hits_a = 0;
  for (int i = 0; i < 200; ++i) {
    const auto pick = table.SampleByDegree({1.0}, rng);
    ASSERT_TRUE(pick.has_value());
    if (pick->action == 1) ++hits_a;
  }
  EXPECT_EQ(hits_a, 200);  // b has degree 0 at input 1.0
}

TEST(PcamTableTest, SampleByDegreeNulloptWhenAllZero) {
  PcamTable table(1, TestHardware());
  table.Insert({"a", {PcamParams::MakeBand(1.0, 0.1, 0.1)}, 1});
  table.Commit();
  analognf::RandomStream rng(4);
  EXPECT_FALSE(table.SampleByDegree({3.9}, rng).has_value());
}

TEST(PcamTableTest, InsertValidatesArity) {
  PcamTable table(2, TestHardware());
  EXPECT_THROW(table.Insert({"bad", {UnitTrapezoid()}, 0}),
               std::invalid_argument);
}

TEST(PcamTableTest, EnergyGrowsWithRows) {
  PcamTable table(1, TestHardware());
  table.Insert({"a", {UnitTrapezoid()}, 1});
  table.Commit();
  table.Search({2.5});
  const double one_row = table.ConsumedEnergyJ();
  table.Insert({"b", {UnitTrapezoid()}, 2});
  table.Commit();
  table.Search({2.5});
  EXPECT_GT(table.ConsumedEnergyJ() - one_row, one_row * 1.5);
}

// ------------------------------------------------------------- pipeline

TEST(PcamPipelineTest, ProductMatchesManual) {
  const std::vector<StageConfig> stages = {
      {"s0", UnitTrapezoid()},
      {"s1", PcamParams::MakeTrapezoid(0.0, 1.0, 2.0, 3.0, 1.5, 0.5)},
  };
  PcamPipeline pipeline(stages, TestHardware());
  const auto r = pipeline.Evaluate({1.5, 1.5});
  ASSERT_EQ(r.stage_outputs.size(), 2u);
  EXPECT_NEAR(r.combined, r.stage_outputs[0] * r.stage_outputs[1], 1e-12);
  EXPECT_GT(r.energy_j, 0.0);
}

TEST(PcamPipelineTest, CombineModes) {
  const std::vector<StageConfig> stages = {
      {"a", PcamParams::MakeTrapezoid(0.0, 1.0, 5.0, 6.0, 0.8, 0.0)},
      {"b", PcamParams::MakeTrapezoid(0.0, 1.0, 5.0, 6.0, 0.4, 0.0)},
  };
  const std::vector<double> inputs = {2.0, 2.0};  // plateaus: 0.8, 0.4

  PcamPipeline product(stages, TestHardware(), CombineMode::kProduct);
  EXPECT_NEAR(product.Evaluate(inputs).combined, 0.32, 1e-9);

  PcamPipeline minimum(stages, TestHardware(), CombineMode::kMin);
  EXPECT_NEAR(minimum.Evaluate(inputs).combined, 0.4, 1e-9);

  PcamPipeline mean(stages, TestHardware(), CombineMode::kArithmeticMean);
  EXPECT_NEAR(mean.Evaluate(inputs).combined, 0.6, 1e-9);

  PcamPipeline geo(stages, TestHardware(), CombineMode::kGeometricMean);
  EXPECT_NEAR(geo.Evaluate(inputs).combined, std::sqrt(0.32), 1e-9);
}

TEST(PcamPipelineTest, RejectsEmptyAndArityMismatch) {
  EXPECT_THROW(PcamPipeline({}, TestHardware()), std::invalid_argument);
  PcamPipeline p({{"a", UnitTrapezoid()}}, TestHardware());
  EXPECT_THROW(p.Evaluate({1.0, 2.0}), std::invalid_argument);
}

TEST(PcamPipelineTest, ProgramStageTakesEffect) {
  PcamPipeline p({{"a", UnitTrapezoid()}}, TestHardware());
  EXPECT_NEAR(p.Evaluate({2.5}).combined, 1.0, 1e-9);
  p.ProgramStage(0, PcamParams::MakeTrapezoid(10.0, 11.0, 12.0, 13.0));
  EXPECT_NEAR(p.Evaluate({2.5}).combined, 0.0, 1e-9);
  EXPECT_EQ(p.stage(0).params.m1, 10.0);
}

// Three stages whose inputs below land on skirts and plateaus, so every
// stage output and energy term is a non-trivial double.
std::vector<StageConfig> ReplayStages() {
  return {
      {"a", PcamParams::MakeTrapezoid(0.0, 1.0, 2.0, 3.0, 1.0, 0.0)},
      {"b", PcamParams::MakeTrapezoid(-1.0, 0.5, 1.5, 2.5, 1.5, 0.5)},
      {"c", PcamParams::MakeTrapezoid(0.2, 0.7, 3.3, 3.9, 0.9, 0.1)},
  };
}

void ExpectSameResult(const PcamPipeline::Result& got,
                      const PcamPipeline::Result& want) {
  EXPECT_EQ(got.combined, want.combined);
  EXPECT_EQ(got.stage_outputs, want.stage_outputs);
  EXPECT_EQ(got.energy_j, want.energy_j);
}

// A replayed evaluation returns the first evaluation's result, and every
// counter advances exactly as k real evaluations would: the same
// left-to-right k-fold sums.
TEST(PcamPipelineTest, ReplayIsBitIdentical) {
  PcamPipeline p(ReplayStages(), TestHardware());
  const std::vector<double> inputs = {0.37, 2.11, 0.45};
  const PcamPipeline::Result first = p.Evaluate(inputs);
  std::vector<double> cell_energy(p.stage_count());
  for (std::size_t i = 0; i < p.stage_count(); ++i) {
    cell_energy[i] = std::as_const(p).cell(i).ConsumedSearchEnergyJ();
    ASSERT_GT(cell_energy[i], 0.0);
  }

  constexpr std::uint64_t kEvaluations = 7;
  PcamPipeline::Result scratch;
  for (std::uint64_t k = 1; k < kEvaluations; ++k) {
    p.Evaluate(inputs, scratch);
    ExpectSameResult(scratch, first);
  }
  EXPECT_EQ(p.replays(), kEvaluations - 1);
  EXPECT_EQ(p.evaluations(), kEvaluations);
  double pipeline_sum = 0.0;
  for (std::uint64_t k = 0; k < kEvaluations; ++k) {
    pipeline_sum += first.energy_j;
  }
  EXPECT_EQ(p.ConsumedEnergyJ(), pipeline_sum);
  for (std::size_t i = 0; i < p.stage_count(); ++i) {
    double cell_sum = 0.0;
    for (std::uint64_t k = 0; k < kEvaluations; ++k) {
      cell_sum += cell_energy[i];
    }
    const HardwarePcamCell& cell = std::as_const(p).cell(i);
    EXPECT_EQ(cell.searches(), kEvaluations);
    EXPECT_EQ(cell.ConsumedSearchEnergyJ(), cell_sum);
  }
}

// ProgramStage() and the mutable cell() accessor drop the memo: the
// repeated input then returns what a freshly built pipeline in the new
// state returns, not the stale result.
TEST(PcamPipelineTest, ProgramAndAgeDropTheReplay) {
  const std::vector<double> inputs = {0.37, 2.11, 0.45};
  const PcamParams reprogrammed =
      PcamParams::MakeTrapezoid(0.1, 0.3, 0.35, 0.6, 0.8, 0.2);
  {
    PcamPipeline p(ReplayStages(), TestHardware());
    const PcamPipeline::Result before = p.Evaluate(inputs);
    p.ProgramStage(0, reprogrammed);
    std::vector<StageConfig> stages = ReplayStages();
    stages[0].params = reprogrammed;
    PcamPipeline fresh(stages, TestHardware());
    const PcamPipeline::Result want = fresh.Evaluate(inputs);
    ASSERT_NE(want.combined, before.combined);
    ExpectSameResult(p.Evaluate(inputs), want);
    EXPECT_EQ(p.replays(), 0u);
  }
  {
    HardwarePcamConfig hw = TestHardware();
    hw.device.retention_time_constant_s = 50.0;
    PcamPipeline p(ReplayStages(), hw);
    const PcamPipeline::Result before = p.Evaluate(inputs);
    for (std::size_t i = 0; i < p.stage_count(); ++i) p.cell(i).Age(40.0);
    PcamPipeline fresh(ReplayStages(), hw);
    for (std::size_t i = 0; i < fresh.stage_count(); ++i) {
      fresh.cell(i).Age(40.0);
    }
    const PcamPipeline::Result want = fresh.Evaluate(inputs);
    ASSERT_NE(want.energy_j, before.energy_j);
    ExpectSameResult(p.Evaluate(inputs), want);
    EXPECT_EQ(p.replays(), 0u);
  }
}

// A noisy channel draws fresh noise on every search, so a repeated input
// is always re-evaluated: outputs track independent per-cell references
// drawing the same streams. On a stateless pipeline, -0.0 is a different
// input from 0.0 (bit patterns, not operator==).
TEST(PcamPipelineTest, NoisyChannelIsNeverReplayed) {
  HardwarePcamConfig hw = TestHardware();
  hw.channel = analog::ChannelParams::Noisy(0.05);
  PcamPipeline noisy(ReplayStages(), hw);
  std::vector<HardwarePcamCell> reference;
  for (std::size_t i = 0; i < noisy.stage_count(); ++i) {
    HardwarePcamConfig cell_hw = hw;
    cell_hw.seed = hw.seed + 0x51a9e * (i + 1);  // the pipeline's seeding
    reference.emplace_back(ReplayStages()[i].params, cell_hw);
  }
  const std::vector<double> inputs = {0.37, 2.11, 0.45};
  std::vector<double> first_outputs;
  for (int k = 0; k < 3; ++k) {
    const PcamPipeline::Result r = noisy.Evaluate(inputs);
    for (std::size_t i = 0; i < noisy.stage_count(); ++i) {
      const PcamEvalResult want = reference[i].Evaluate(inputs[i]);
      EXPECT_EQ(r.stage_outputs[i], want.output);
    }
    if (k == 0) {
      first_outputs = r.stage_outputs;
    } else {
      EXPECT_NE(r.stage_outputs, first_outputs);
    }
  }
  EXPECT_EQ(noisy.replays(), 0u);
  EXPECT_EQ(std::as_const(noisy).cell(0).searches(), 3u);

  PcamPipeline ideal(ReplayStages(), TestHardware());
  ideal.Evaluate({0.0, 0.0, 0.0});
  ideal.Evaluate({-0.0, 0.0, 0.0});
  EXPECT_EQ(ideal.replays(), 0u);
  ideal.Evaluate({-0.0, 0.0, 0.0});
  EXPECT_EQ(ideal.replays(), 1u);
  ideal.Evaluate({0.0, 0.0, 0.0});
  EXPECT_EQ(ideal.replays(), 1u);
}

TEST(PcamPipelineTest, CombineModeNames) {
  EXPECT_EQ(ToString(CombineMode::kProduct), "product");
  EXPECT_EQ(ToString(CombineMode::kGeometricMean), "geomean");
}

// ------------------------------------------------- programming surface

TEST(ProgramTest, ProgPcamBuildsValidatedParams) {
  const PcamParams p = ProgPcam(1.0, 2.0, 3.0, 4.0, 1.0, -1.0, 1.0, 0.0);
  EXPECT_EQ(p.m1, 1.0);
  EXPECT_EQ(p.sb, -1.0);
  EXPECT_THROW(ProgPcam(4.0, 2.0, 3.0, 1.0, 1.0, -1.0, 1.0, 0.0),
               std::invalid_argument);
}

AnalogTableSpec TestSpec() {
  AnalogTableSpec spec;
  spec.name = "analogAQM";
  spec.read.push_back({"sojourn_time", UnitTrapezoid()});
  spec.read.push_back(
      {"d/dt(sojourn_time)",
       PcamParams::MakeTrapezoid(-1.0, 0.0, 5.0, 6.0, 1.5, 0.5)});
  return spec;
}

TEST(ProgramTest, SpecValidation) {
  EXPECT_NO_THROW(TestSpec().Validate());
  AnalogTableSpec empty;
  empty.name = "x";
  EXPECT_THROW(empty.Validate(), std::invalid_argument);
  AnalogTableSpec unnamed = TestSpec();
  unnamed.name.clear();
  EXPECT_THROW(unnamed.Validate(), std::invalid_argument);
}

TEST(ProgramTest, TableAppliesPipeline) {
  AnalogMatchActionTable table(TestSpec(), TestHardware());
  AnalogMatchActionTable::Output out;
  table.Apply({2.5, 2.0}, out);
  EXPECT_EQ(out.per_field.size(), 2u);
  EXPECT_NEAR(out.value, out.per_field[0] * out.per_field[1], 1e-12);
  EXPECT_GT(out.energy_j, 0.0);
}

TEST(ProgramTest, FieldIndexLookup) {
  AnalogMatchActionTable table(TestSpec(), TestHardware());
  EXPECT_EQ(table.FieldIndex("sojourn_time"), 0u);
  EXPECT_EQ(table.FieldIndex("d/dt(sojourn_time)"), 1u);
  EXPECT_FALSE(table.FieldIndex("nope").has_value());
}

TEST(ProgramTest, UpdatePcamByNameAndId) {
  AnalogMatchActionTable table(TestSpec(), TestHardware());
  const PcamParams newer = PcamParams::MakeTrapezoid(7.0, 8.0, 9.0, 10.0);
  table.UpdatePcam("sojourn_time", newer);
  EXPECT_EQ(table.spec().read[0].program.m1, 7.0);
  table.UpdatePcam(1, newer);
  EXPECT_EQ(table.spec().read[1].program.m1, 7.0);
  EXPECT_THROW(table.UpdatePcam("ghost", newer), std::invalid_argument);
}


// ------------------------------------------------------------ retention

TEST(HardwarePcamTest, AgingShiftsThresholdsDownward) {
  HardwarePcamConfig config = TestHardware();
  config.device.retention_time_constant_s = 100.0;
  HardwarePcamCell cell(UnitTrapezoid(), config);
  const double m2_fresh = cell.effective_params().m2;
  cell.Age(100.0);  // one time constant
  EXPECT_LT(cell.effective_params().m2, m2_fresh);
  // Ordering invariants survive aging.
  const PcamParams& aged = cell.effective_params();
  EXPECT_LT(aged.m1, aged.m2);
  EXPECT_LE(aged.m2, aged.m3);
  EXPECT_LT(aged.m3, aged.m4);
}

TEST(HardwarePcamTest, ReprogramRestoresAgedCell) {
  HardwarePcamConfig config = TestHardware();
  config.device.retention_time_constant_s = 50.0;
  HardwarePcamCell cell(UnitTrapezoid(), config);
  const double m2_fresh = cell.effective_params().m2;
  cell.Age(200.0);
  ASSERT_NE(cell.effective_params().m2, m2_fresh);
  cell.Program(UnitTrapezoid());  // controller refresh
  EXPECT_NEAR(cell.effective_params().m2, m2_fresh, 1e-12);
}

TEST(HardwarePcamTest, IdealDeviceDoesNotAge) {
  HardwarePcamCell cell(UnitTrapezoid(), TestHardware());
  const PcamParams before = cell.effective_params();
  cell.Age(1.0e6);
  EXPECT_EQ(cell.effective_params().m2, before.m2);
}

// Property: hardware threshold snapping error is bounded by half the
// device ladder's step over the input range, for any level count.
class HardwareSnapProperty : public ::testing::TestWithParam<std::size_t> {
};

TEST_P(HardwareSnapProperty, SnapErrorBoundedByHalfStep) {
  const std::size_t levels = GetParam();
  HardwarePcamConfig config;
  config.state_levels = levels;
  const double step =
      kPcamInputRange.span() / static_cast<double>(levels - 1);
  analognf::RandomStream rng(levels);
  for (int i = 0; i < 50; ++i) {
    const double m2 = -1.5 + 3.5 * rng.NextUniform();
    const double m3 = m2 + (0.1 + 0.9 * rng.NextUniform());
    const PcamParams target =
        PcamParams::MakeTrapezoid(m2 - 0.5, m2, m3, m3 + 0.5);
    HardwarePcamCell cell(target, config);
    EXPECT_LE(std::fabs(cell.effective_params().m2 - target.m2),
              step / 2.0 + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, HardwareSnapProperty,
                         ::testing::Values(8, 16, 64, 256, 1024));

// Property: crossbar VMM equals the dense dot product for random
// programs and inputs.
class CrossbarVmmProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CrossbarVmmProperty, MatchesDenseComputation) {
  analognf::RandomStream rng(GetParam());
  const std::size_t rows = 1 + rng.NextIndex(6);
  const std::size_t cols = 1 + rng.NextIndex(6);
  analog::Crossbar xbar(rows, cols, device::MemristorParams::NbSrTiO3());
  std::vector<double> g(rows * cols);
  for (double& v : g) v = 1e-11 + 9.99e-09 * rng.NextUniform();
  for (std::size_t i = 0; i < g.size(); ++i) {
    xbar.At(i / cols, i % cols).SetResistance(1.0 / g[i]);
  }
  std::vector<double> volts(rows);
  for (double& v : volts) v = -2.0 + 6.0 * rng.NextUniform();
  std::vector<double> currents(cols);
  xbar.MultiplyInto(volts, currents);
  for (std::size_t c = 0; c < cols; ++c) {
    double expected = 0.0;
    for (std::size_t r = 0; r < rows; ++r) {
      expected += volts[r] * g[r * cols + c];
    }
    EXPECT_NEAR(currents[c], expected,
                std::max(std::fabs(expected) * 1e-5, 1e-15));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossbarVmmProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

// ------------------------------------------------------- region combine

TEST(RegionSeverityTest, OrdersMismatchAboveSkirtAboveMatch) {
  EXPECT_LT(RegionSeverity(MatchRegion::kMatch),
            RegionSeverity(MatchRegion::kProbableRising));
  EXPECT_LT(RegionSeverity(MatchRegion::kMatch),
            RegionSeverity(MatchRegion::kProbableFalling));
  EXPECT_LT(RegionSeverity(MatchRegion::kProbableRising),
            RegionSeverity(MatchRegion::kMismatchLow));
  EXPECT_LT(RegionSeverity(MatchRegion::kProbableFalling),
            RegionSeverity(MatchRegion::kMismatchHigh));
}

TEST(PcamWordTest, CombinedRegionIsWorstCell) {
  // Regression: the combiner used to keep the *last* non-match cell's
  // region, so a trailing skirt hit would mask an earlier deterministic
  // mismatch. Field 0 mismatches hard; field 1 sits on its rising skirt.
  const std::vector<PcamParams> fields = {UnitTrapezoid(), UnitTrapezoid()};
  PcamWord word(fields, TestHardware());
  const PcamEvalResult r = word.Evaluate({0.2, 1.5});
  EXPECT_EQ(r.region, MatchRegion::kMismatchLow);
  // A skirt hit still outranks a clean match in either order.
  EXPECT_EQ(word.Evaluate({2.5, 1.5}).region, MatchRegion::kProbableRising);
  EXPECT_EQ(word.Evaluate({1.5, 2.5}).region, MatchRegion::kProbableRising);
  EXPECT_EQ(word.Evaluate({2.5, 2.5}).region, MatchRegion::kMatch);
}

// --------------------------------------------------------- search engine

namespace engine_test {

// Reference match degrees computed cell by cell on the effective
// (post-quantisation) transfer functions, bypassing the engine entirely.
std::vector<double> ReferenceDegrees(const PcamTable& table,
                                     const std::vector<double>& query) {
  std::vector<double> degrees(table.size(), 1.0);
  for (std::size_t r = 0; r < table.size(); ++r) {
    for (std::size_t f = 0; f < table.field_count(); ++f) {
      const PcamCell cell(table.word(r).cell(f).effective_params());
      degrees[r] *= cell.Evaluate(query[f]);
    }
  }
  return degrees;
}

PcamTable MakeTestTable(std::size_t rows, HardwarePcamConfig hardware) {
  PcamTable table(2, hardware);
  for (std::size_t i = 0; i < rows; ++i) {
    const double c1 = 1.0 + 0.02 * static_cast<double>(i);
    const double c2 = 3.0 - 0.015 * static_cast<double>(i);
    table.Insert({"row" + std::to_string(i),
                  {PcamParams::MakeBand(c1, 0.05, 0.4),
                   PcamParams::MakeBand(c2, 0.05, 0.4)},
                  static_cast<std::uint32_t>(i)});
  }
  table.Commit();
  return table;
}

}  // namespace engine_test

TEST(PcamSearchEngineTest, MatchesPerCellReferenceWithin1e12) {
  PcamTable table = engine_test::MakeTestTable(48, TestHardware());
  for (double v = 0.8; v < 3.2; v += 0.13) {
    const std::vector<double> query = {v, 4.0 - v};
    const auto result = table.Search(query);
    ASSERT_TRUE(result.has_value());
    const std::vector<double> expected =
        engine_test::ReferenceDegrees(table, query);
    ASSERT_EQ(table.last_degrees().size(), expected.size());
    std::size_t best = 0;
    for (std::size_t r = 0; r < expected.size(); ++r) {
      EXPECT_NEAR(table.last_degrees()[r], expected[r], 1e-12);
      if (expected[r] > expected[best]) best = r;
    }
    EXPECT_EQ(result->row_index, best);
    EXPECT_NEAR(result->match_degree, expected[best], 1e-12);
  }
}

TEST(PcamSearchEngineTest, BatchMatchesSequentialSearches) {
  PcamTable sequential = engine_test::MakeTestTable(32, TestHardware());
  PcamTable batched = engine_test::MakeTestTable(32, TestHardware());
  std::vector<std::vector<double>> queries;
  std::vector<double> packed;
  for (double v = 1.0; v < 3.0; v += 0.21) {
    queries.push_back({v, 4.0 - v});
    packed.insert(packed.end(), {v, 4.0 - v});
  }
  const auto batch = batched.SearchBatchFlat(packed);
  ASSERT_EQ(batch.size(), queries.size());
  for (std::size_t q = 0; q < queries.size(); ++q) {
    const auto one = sequential.Search(queries[q]);
    ASSERT_TRUE(one.has_value());
    EXPECT_EQ(batch[q].row_index, one->row_index);
    EXPECT_EQ(batch[q].action, one->action);
    EXPECT_NEAR(batch[q].match_degree, one->match_degree, 1e-12);
    EXPECT_NEAR(batch[q].energy_j, one->energy_j, 1e-18);
  }
  // last_degrees() reflects the final query in both modes.
  for (std::size_t r = 0; r < batched.size(); ++r) {
    EXPECT_NEAR(batched.last_degrees()[r], sequential.last_degrees()[r],
                1e-12);
  }
  EXPECT_NEAR(batched.ConsumedEnergyJ(), sequential.ConsumedEnergyJ(),
              1e-18);
}

// ------------------------------------------------- stage-then-commit

TEST(PcamTableCommitTest, SearchThrowsOnUncommittedMutations) {
  PcamTable table(1, TestHardware());
  table.Insert({"a", {PcamParams::MakeBand(1.0, 0.2, 0.3)}, 1});
  // Same contract as TcamTable/LpmTable: staged mutations make every
  // search entry point throw until the next Commit().
  EXPECT_THROW(table.Search({1.0}), std::logic_error);
  EXPECT_THROW(table.SearchBatchFlat({1.0}), std::logic_error);
  EXPECT_THROW(table.SampleWithDraw({1.0}, 0.5), std::logic_error);
  table.Commit();
  EXPECT_TRUE(table.Search({1.0}).has_value());
  table.ProgramField(0, 0, PcamParams::MakeBand(2.0, 0.2, 0.3));
  EXPECT_THROW(table.Search({2.0}), std::logic_error);
  table.Commit();
  EXPECT_TRUE(table.Search({2.0}).has_value());
}

TEST(PcamTableCommitTest, CommitStatsSeparateDeltaFromFullRecompiles) {
  PcamTable table(1, TestHardware());
  for (int i = 0; i < 4; ++i) {
    // append, not `"r" + ...`: g++ 12 -O3 reports a false -Wrestrict.
    table.Insert({std::string("r").append(std::to_string(i)),
                  {PcamParams::MakeBand(1.0 + i, 0.2, 0.3)},
                  static_cast<std::uint32_t>(i)});
  }
  table.Commit();  // first build touches every row: a full recompile
  EXPECT_EQ(table.commit_stats().commits, 1u);
  EXPECT_EQ(table.commit_stats().full_recompiles, 1u);
  EXPECT_FALSE(table.commit_stats().last_was_delta);

  table.ProgramField(2, 0, PcamParams::MakeBand(2.5, 0.2, 0.3));
  table.Commit();  // one staged row out of four: the delta path
  EXPECT_EQ(table.commit_stats().delta_commits, 1u);
  EXPECT_EQ(table.commit_stats().delta_rows, 1u);
  EXPECT_TRUE(table.commit_stats().last_was_delta);

  for (std::size_t row = 0; row < 4; ++row) {  // every row staged
    table.ProgramField(row, 0, PcamParams::MakeBand(1.5, 0.2, 0.3));
  }
  table.Commit();
  EXPECT_EQ(table.commit_stats().full_recompiles, 2u);
  EXPECT_FALSE(table.commit_stats().last_was_delta);

  table.Commit();  // nothing staged: publishes nothing, counts nothing
  EXPECT_EQ(table.commit_stats().commits, 3u);
}

TEST(PcamSearchEngineTest, ProgramFieldRefreshesSnapshot) {
  PcamTable table(1, TestHardware());
  table.Insert({"a", {PcamParams::MakeBand(1.0, 0.1, 0.1)}, 1});
  table.Insert({"b", {PcamParams::MakeBand(3.0, 0.1, 0.1)}, 2});
  table.Commit();
  auto result = table.Search({1.0});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->action, 1u);
  // Retarget row b onto the probe; the dirty-tracked snapshot must pick
  // the reprogrammed transfer function up on the next commit+search.
  table.ProgramField(1, 0, PcamParams::MakeBand(1.0, 0.2, 0.2));
  table.Commit();
  result = table.Search({1.0});
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->row_index, 0u);  // tie at degree 1: lowest index wins
  EXPECT_GT(table.last_degrees()[1], 0.9);
}

// A table search is one stateless parallel analog step: a search-line
// channel with noise or crosstalk is refused at construction.
TEST(PcamTableTest, RejectsStatefulChannel) {
  HardwarePcamConfig hardware = TestHardware();
  hardware.channel = analog::ChannelParams::Noisy(0.05);
  EXPECT_THROW(PcamTable(2, hardware), std::invalid_argument);
  hardware.channel = analog::ChannelParams{};
  hardware.channel.interference_peak_v = 0.1;
  EXPECT_THROW(PcamTable(2, hardware), std::invalid_argument);
  hardware.channel.interference_peak_v = 0.0;
  hardware.channel.line_gain = 0.9;  // a pure gain stays stateless
  EXPECT_NO_THROW(PcamTable(2, hardware));
}

TEST(PcamSearchEngineTest, BatchValidatesArityAndHandlesEmpty) {
  PcamTable table = engine_test::MakeTestTable(4, TestHardware());
  EXPECT_THROW(table.SearchBatchFlat({1.0, 2.0, 3.0}),
               std::invalid_argument);
  EXPECT_TRUE(table.SearchBatchFlat({}).empty());
  PcamTable empty(2, TestHardware());
  EXPECT_TRUE(empty.SearchBatchFlat({1.0, 2.0}).empty());
}

// ------------------------------------------------------- degree sampling

TEST(PcamTableTest, SampleByDegreeIsSeedDeterministic) {
  PcamTable a = engine_test::MakeTestTable(16, TestHardware());
  PcamTable b = engine_test::MakeTestTable(16, TestHardware());
  analognf::RandomStream rng_a(77);
  analognf::RandomStream rng_b(77);
  for (int i = 0; i < 50; ++i) {
    const std::vector<double> query = {1.2, 2.8};
    const auto pa = a.SampleByDegree(query, rng_a);
    const auto pb = b.SampleByDegree(query, rng_b);
    ASSERT_EQ(pa.has_value(), pb.has_value());
    if (pa.has_value()) {
      EXPECT_EQ(pa->row_index, pb->row_index);
      EXPECT_EQ(pa->match_degree, pb->match_degree);
    }
  }
}

TEST(PcamTableTest, SampleWithDrawTailFallsBackToArgMax) {
  PcamTable table = engine_test::MakeTestTable(16, TestHardware());
  const std::vector<double> query = {1.2, 2.8};
  const auto best = table.Search(query);
  ASSERT_TRUE(best.has_value());
  // A draw past the cumulative mass must land on the arg-max row, not
  // run off the end of the degree scan.
  const auto tail = table.SampleWithDraw(query, 2.0);
  ASSERT_TRUE(tail.has_value());
  EXPECT_EQ(tail->row_index, best->row_index);
  EXPECT_EQ(tail->match_degree, best->match_degree);
}

// PcamTable::Search replays a bitwise repeat of the previous stateless
// query: same result and energy, counters advanced. -0.0 is not a
// repeat of 0.0, and a mutation drops the memo.
TEST(PcamTableTest, SearchMemoReplaysOnlyBitwiseRepeats) {
  PcamTable table(2, TestHardware());
  table.Insert({"a", {UnitTrapezoid(), UnitTrapezoid()}, 1});
  table.Insert({"b",
                {PcamParams::MakeTrapezoid(-1.0, 0.0, 0.5, 1.5),
                 UnitTrapezoid()},
                2});
  table.Commit();
  const auto first = table.Search({0.0, 2.5});
  ASSERT_TRUE(first.has_value());
  const double energy_after_first = table.ConsumedEnergyJ();
  const auto again = table.Search({0.0, 2.5});
  ASSERT_TRUE(again.has_value());
  EXPECT_EQ(table.replays(), 1u);
  EXPECT_EQ(again->row_index, first->row_index);
  EXPECT_EQ(again->match_degree, first->match_degree);
  EXPECT_EQ(again->energy_j, first->energy_j);
  EXPECT_EQ(table.ConsumedEnergyJ(), energy_after_first + first->energy_j);

  table.Search({-0.0, 2.5});
  EXPECT_EQ(table.replays(), 1u);
  table.Search({-0.0, 2.5});
  EXPECT_EQ(table.replays(), 2u);
  table.ProgramField(0, 1, UnitTrapezoid());
  table.Commit();
  table.Search({-0.0, 2.5});
  EXPECT_EQ(table.replays(), 2u);
}

TEST(PcamTableTest, SampleWithDrawNulloptWhenAllZero) {
  PcamTable table(1, TestHardware());
  table.Insert({"a", {PcamParams::MakeBand(1.0, 0.1, 0.1)}, 1});
  table.Commit();
  EXPECT_FALSE(table.SampleWithDraw({3.9}, 0.5).has_value());
}

TEST(PcamTableTest, SampleWithDrawSkipsZeroMassRows) {
  PcamTable table(1, TestHardware());
  table.Insert({"far", {PcamParams::MakeBand(3.0, 0.1, 0.1)}, 1});
  table.Insert({"near", {PcamParams::MakeBand(1.0, 0.2, 0.2)}, 2});
  table.Commit();
  // Row 0 has zero degree at this probe, so any positive draw must land
  // on row 1 (all the cumulative mass lives there).
  const auto pick = table.SampleWithDraw({1.0}, 0.25);
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->row_index, 1u);
}

}  // namespace
}  // namespace analognf::core
