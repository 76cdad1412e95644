// Tests for the energy-accounting layer: ledger, Table 1 registry, and
// the digital data-movement model — including the paper's headline
// ">= 50x more energy efficient" cross-check against the device dataset.
#include <gtest/gtest.h>

#include "analognf/device/dataset.hpp"
#include "analognf/energy/ledger.hpp"
#include "analognf/energy/movement.hpp"
#include "analognf/energy/reference.hpp"
#include "analognf/energy/standby.hpp"

namespace analognf::energy {
namespace {

// -------------------------------------------------------------- ledger

// Adds `energy_j` and `operations` to a category, as the data plane's
// stages do through their meters.
void Charge(EnergyLedger& ledger, const std::string& category,
            double energy_j, std::uint64_t operations) {
  CategoryTotal* meter = ledger.Meter(category);
  meter->energy_j += energy_j;
  meter->operations += operations;
}

TEST(EnergyLedgerTest, StartsEmpty) {
  EnergyLedger ledger;
  EXPECT_EQ(ledger.TotalJ(), 0.0);
  EXPECT_TRUE(ledger.categories().empty());
  EXPECT_EQ(ledger.Of("anything").energy_j, 0.0);
}

TEST(EnergyLedgerTest, RecordsAndTotals) {
  EnergyLedger ledger;
  Charge(ledger, category::kTcamSearch, 2.0e-15, 1);
  Charge(ledger, category::kTcamSearch, 3.0e-15, 2);
  Charge(ledger, category::kPcamSearch, 5.0e-15, 1);
  EXPECT_NEAR(ledger.TotalJ(), 10.0e-15, 1e-20);
  EXPECT_EQ(ledger.categories().size(), 2u);
  EXPECT_NEAR(ledger.Of(category::kTcamSearch).energy_j, 5.0e-15, 1e-20);
  EXPECT_EQ(ledger.Of(category::kTcamSearch).operations, 3u);
}

TEST(EnergyLedgerTest, MeterPointerStableAcrossRecordAndMerge) {
  EnergyLedger ledger;
  CategoryTotal* meter = ledger.Meter("x");
  meter->energy_j += 1.0;
  meter->operations += 1;
  // Growing the category map must not move the metered total.
  for (int i = 0; i < 64; ++i) {
    Charge(ledger, "cat" + std::to_string(i), 0.5, 1);
  }
  Charge(ledger, "x", 2.0, 2);
  EXPECT_EQ(meter, ledger.Meter("x"));
  meter->energy_j += 1.0;  // the original pointer is still live
  EXPECT_NEAR(ledger.Of("x").energy_j, 4.0, 1e-12);
  EXPECT_EQ(ledger.Of("x").operations, 3u);
}

// ------------------------------------------------------------ registry

TEST(Table1RegistryTest, HasAllEightDigitalRows) {
  const auto& designs = Table1DigitalDesigns();
  ASSERT_EQ(designs.size(), 8u);
  // Column order as printed in the paper.
  EXPECT_EQ(designs[0].key, "[2]");
  EXPECT_EQ(designs[7].key, "[59]");
  for (const auto& d : designs) {
    EXPECT_EQ(d.computation, Computation::kDigital);
    EXPECT_GT(d.latency_s, 0.0);
    EXPECT_GT(d.energy_lo_j_per_bit, 0.0);
    EXPECT_GE(d.energy_hi_j_per_bit, d.energy_lo_j_per_bit);
  }
}

TEST(Table1RegistryTest, ValuesMatchPaper) {
  const auto& designs = Table1DigitalDesigns();
  EXPECT_NEAR(designs[0].energy_lo_j_per_bit, 0.58e-15, 1e-20);  // [2]
  EXPECT_NEAR(designs[0].latency_s, 1.0e-9, 1e-15);
  EXPECT_NEAR(designs[1].energy_lo_j_per_bit, 1.98e-15, 1e-20);  // [19]
  EXPECT_NEAR(designs[2].energy_hi_j_per_bit, 16.0e-15, 1e-20);  // [42]
  EXPECT_NEAR(designs[7].latency_s, 8.0e-9, 1e-15);              // [59]
}

TEST(Table1RegistryTest, BestDigitalIsArsovski) {
  const ReferenceDesign& best = BestDigitalDesign();
  EXPECT_EQ(best.key, "[2]");
  EXPECT_NEAR(best.energy_lo_j_per_bit, 0.58e-15, 1e-20);
}

TEST(Table1RegistryTest, EnumToString) {
  EXPECT_EQ(ToString(Computation::kDigital), "D");
  EXPECT_EQ(ToString(Computation::kAnalog), "A");
  EXPECT_EQ(ToString(Technology::kTransistor), "T");
  EXPECT_EQ(ToString(Technology::kMemristor), "M");
}

// The paper's headline claim: the pCAM's lowest-energy analog read beats
// the best digital design by a factor of at least 50.
TEST(Table1RegistryTest, PcamBeatsBestDigitalByFiftyTimes) {
  const device::MemristorDataset ds =
      device::MemristorDataset::Synthesize(device::SynthesisConfig{});
  const double pcam_j = ds.ComputeEnvelope().min_energy_j;
  const double best_digital_j = BestDigitalDesign().energy_lo_j_per_bit;
  EXPECT_GE(best_digital_j / pcam_j, 50.0);
}

// ------------------------------------------------------------ movement

TEST(MovementModelTest, DefaultsValidate) {
  EXPECT_NO_THROW(MovementModelParams{}.Validate());
  MovementModelParams bad;
  bad.sram_read_j_per_bit = -1.0;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
}

TEST(MovementModelTest, NinetyPercentMovementShare) {
  // Fig. 1 / Sec. 1: "up to 90%" of digital energy is data movement.
  DataMovementModel model;
  const MovementBreakdown cost = model.CostOf(104);
  EXPECT_NEAR(cost.movement_fraction, 0.9, 0.02);
  EXPECT_NEAR(cost.total_j, cost.compute_j + cost.movement_j, 1e-24);
}

TEST(MovementModelTest, ScalesLinearlyInBits) {
  DataMovementModel model;
  const double one = model.CostOf(1).total_j;
  EXPECT_NEAR(model.CostOf(104).total_j, 104.0 * one, 1e-20);
}

TEST(MovementModelTest, ZeroBitsCostNothing) {
  DataMovementModel model;
  const MovementBreakdown cost = model.CostOf(0);
  EXPECT_EQ(cost.total_j, 0.0);
  EXPECT_EQ(cost.movement_fraction, 0.0);
}

TEST(MovementModelTest, ColocalisedParamsKillMovementShare) {
  MovementModelParams p;
  p.wire_energy_j_per_bit_mm = 0.0;
  p.sram_read_j_per_bit = 0.0;
  DataMovementModel model(p);
  EXPECT_EQ(model.CostOf(64).movement_fraction, 0.0);
}


// -------------------------------------------------------------- standby

TEST(StandbyModelTest, DefaultsValidate) {
  EXPECT_NO_THROW(StandbyModel{});
  StandbyModelParams bad;
  bad.cmos_leakage_w_per_bit = -1.0;
  EXPECT_THROW(StandbyModel{bad}, std::invalid_argument);
}

TEST(StandbyModelTest, MemristorIdlesForFree) {
  StandbyModel model;
  const StandbyBreakdown cost = model.CostOf(1u << 20, 3600.0);
  EXPECT_EQ(cost.memristor_idle_j, 0.0);
  EXPECT_EQ(cost.memristor_power_cycle_j, 0.0);
  EXPECT_GT(cost.cmos_idle_j, 0.0);
}

TEST(StandbyModelTest, LeakageScalesWithBitsAndTime) {
  StandbyModel model;
  const double one = model.CostOf(1, 1.0).cmos_idle_j;
  EXPECT_NEAR(model.CostOf(100, 1.0).cmos_idle_j, 100.0 * one, 1e-18);
  EXPECT_NEAR(model.CostOf(1, 100.0).cmos_idle_j, 100.0 * one, 1e-18);
}

TEST(StandbyModelTest, PowerGatingTradeoff) {
  // Gating beats leaking once the idle interval exceeds
  // reload / leakage-power.
  StandbyModel model;
  const double breakeven_s = model.params().cmos_reload_j_per_bit /
                             model.params().cmos_leakage_w_per_bit;
  const StandbyBreakdown longer = model.CostOf(1024, breakeven_s * 10.0);
  EXPECT_GT(longer.cmos_idle_j, longer.cmos_power_cycle_j);
  const StandbyBreakdown shorter = model.CostOf(1024, breakeven_s / 10.0);
  EXPECT_LT(shorter.cmos_idle_j, shorter.cmos_power_cycle_j);
}

TEST(StandbyModelTest, RejectsNegativeInterval) {
  StandbyModel model;
  EXPECT_THROW(model.CostOf(8, -1.0), std::invalid_argument);
}

}  // namespace
}  // namespace analognf::energy
