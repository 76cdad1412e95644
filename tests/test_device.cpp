// Tests for the Nb:SrTiO3 memristor behavioural model, the synthetic
// dataset, and the state quantiser.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analognf/common/rng.hpp"
#include "analognf/common/units.hpp"
#include "analognf/device/characterization.hpp"
#include "analognf/device/dataset.hpp"
#include "analognf/device/memristor.hpp"
#include "analognf/device/quantizer.hpp"

namespace analognf::device {
namespace {

// ------------------------------------------------------------- params

TEST(MemristorParamsTest, DefaultsValidate) {
  EXPECT_NO_THROW(MemristorParams::NbSrTiO3().Validate());
}

TEST(MemristorParamsTest, RejectsInvertedResistanceWindow) {
  MemristorParams p;
  p.r_lrs_ohm = 1e12;
  p.r_hrs_ohm = 1e8;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(MemristorParamsTest, RejectsNonPositiveRates) {
  MemristorParams p;
  p.drift_rate_per_s = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = MemristorParams{};
  p.v0_volt = -1.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = MemristorParams{};
  p.window_exponent = 0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = MemristorParams{};
  p.read_time_s = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

// ------------------------------------------------------------- device

TEST(MemristorTest, StateZeroIsHighResistance) {
  Memristor m(MemristorParams::NbSrTiO3(), 0.0);
  EXPECT_NEAR(m.ResistanceOhm(), 1.0e12, 1e6);
}

TEST(MemristorTest, StateOneIsLowResistance) {
  Memristor m(MemristorParams::NbSrTiO3(), 1.0);
  EXPECT_NEAR(m.ResistanceOhm(), 1.0e8, 1e2);
}

TEST(MemristorTest, ResistanceIsLogLinearInState) {
  Memristor m(MemristorParams::NbSrTiO3(), 0.5);
  // Geometric mean of the bounds at mid state.
  EXPECT_NEAR(m.ResistanceOhm(), std::sqrt(1.0e8 * 1.0e12),
              std::sqrt(1.0e8 * 1.0e12) * 1e-9);
}

TEST(MemristorTest, SetResistanceRoundTrips) {
  Memristor m(MemristorParams::NbSrTiO3());
  for (double r : {1.0e8, 1.0e9, 3.3e10, 1.0e12}) {
    m.SetResistance(r);
    EXPECT_NEAR(m.ResistanceOhm() / r, 1.0, 1e-9);
  }
}

TEST(MemristorTest, SetResistanceClampsToRange) {
  Memristor m(MemristorParams::NbSrTiO3());
  m.SetResistance(1.0);  // below LRS
  EXPECT_NEAR(m.state(), 1.0, 1e-12);
  m.SetResistance(1e20);  // above HRS
  EXPECT_NEAR(m.state(), 0.0, 1e-12);
}

TEST(MemristorTest, PositivePulseMovesTowardLrs) {
  Memristor m(MemristorParams::NbSrTiO3(), 0.2);
  const double before = m.state();
  m.ApplyPulse(1.5, 1e-3);
  EXPECT_GT(m.state(), before);
}

TEST(MemristorTest, NegativePulseMovesTowardHrs) {
  Memristor m(MemristorParams::NbSrTiO3(), 0.8);
  const double before = m.state();
  m.ApplyPulse(-1.5, 1e-3);
  EXPECT_LT(m.state(), before);
}

TEST(MemristorTest, StateStaysInUnitInterval) {
  Memristor m(MemristorParams::NbSrTiO3(), 0.5);
  m.ApplyPulseTrain(3.0, 1e-3, 500);
  EXPECT_LE(m.state(), 1.0);
  m.ApplyPulseTrain(-3.0, 1e-3, 500);
  EXPECT_GE(m.state(), 0.0);
}

TEST(MemristorTest, FullyResetDeviceRemainsProgrammable) {
  // The Biolek-style window keeps full SET mobility at the RESET edge,
  // so a pristine device must program on the first pulse.
  Memristor m(MemristorParams::NbSrTiO3(), 0.0);
  m.ApplyPulse(2.0, 1e-3);
  EXPECT_GT(m.state(), 0.0);
}

TEST(MemristorTest, LargerAmplitudeMovesFurther) {
  Memristor a(MemristorParams::NbSrTiO3(), 0.3);
  Memristor b(MemristorParams::NbSrTiO3(), 0.3);
  a.ApplyPulse(1.0, 1e-3);
  b.ApplyPulse(2.0, 1e-3);
  EXPECT_GT(b.state(), a.state());
}

TEST(MemristorTest, DriftIsExponentialInAmplitude) {
  // sinh scaling: doubling well above v0 should much-more-than-double
  // the drift.
  Memristor a(MemristorParams::NbSrTiO3(), 0.5);
  Memristor b(MemristorParams::NbSrTiO3(), 0.5);
  a.ApplyPulse(1.0, 1e-6);
  b.ApplyPulse(2.0, 1e-6);
  const double da = a.state() - 0.5;
  const double db = b.state() - 0.5;
  EXPECT_GT(db, 3.0 * da);
}

TEST(MemristorTest, ZeroWidthPulseIsNoOp) {
  Memristor m(MemristorParams::NbSrTiO3(), 0.4);
  m.ApplyPulse(2.0, 0.0);
  EXPECT_EQ(m.state(), 0.4);
}

TEST(MemristorTest, NegativeWidthThrows) {
  Memristor m(MemristorParams::NbSrTiO3());
  EXPECT_THROW(m.ApplyPulse(1.0, -1.0), std::invalid_argument);
  EXPECT_THROW(m.ApplyPulseTrain(1.0, 1e-3, -1), std::invalid_argument);
}

TEST(MemristorTest, ReadCurrentIsOhmic) {
  Memristor m(MemristorParams::NbSrTiO3(), 1.0);  // R = 1e8
  EXPECT_NEAR(m.ReadCurrentA(2.0), 2.0e-8, 1e-12);
  EXPECT_NEAR(m.ReadCurrentA(-2.0), -2.0e-8, 1e-12);
}

TEST(MemristorTest, ReadEnergyMatchesFormula) {
  MemristorParams p = MemristorParams::NbSrTiO3();
  Memristor m(p, 1.0);  // R = 1e8
  // E = V^2/R * t_read = 16 / 1e8 * 1e-3 = 1.6e-10 J = 0.16 nJ.
  EXPECT_NEAR(m.ReadEnergyJ(4.0), 0.16e-9, 1e-13);
}

TEST(MemristorTest, PaperEnergyEnvelopeEndpoints) {
  // Sec. 6: max ~0.16 nJ/bit/cell, min ~0.01 fJ/bit/cell.
  Memristor lrs(MemristorParams::NbSrTiO3(), 1.0);
  Memristor hrs(MemristorParams::NbSrTiO3(), 0.0);
  EXPECT_NEAR(ToNanojoules(lrs.ReadEnergyJ(4.0)), 0.16, 0.001);
  EXPECT_NEAR(ToFemtojoules(hrs.ReadEnergyJ(0.1)), 0.01, 0.001);
}

TEST(MemristorTest, ProgramEnergyPositive) {
  Memristor m(MemristorParams::NbSrTiO3(), 0.5);
  EXPECT_GT(m.ProgramEnergyJ(2.0, 1e-3), 0.0);
  EXPECT_THROW(m.ProgramEnergyJ(2.0, -1e-3), std::invalid_argument);
}

TEST(MemristorTest, ProgramNoiseIsReproducible) {
  MemristorParams p = MemristorParams::NbSrTiO3();
  p.program_noise_sigma = 0.1;
  Memristor a(p, 0.3);
  Memristor b(p, 0.3);
  analognf::RandomStream ra(77);
  analognf::RandomStream rb(77);
  a.ApplyPulseTrain(1.5, 1e-3, 10, &ra);
  b.ApplyPulseTrain(1.5, 1e-3, 10, &rb);
  EXPECT_EQ(a.state(), b.state());
}

TEST(DeviceVariationTest, PerturbsButValidates) {
  DeviceVariation var;
  analognf::RandomStream rng(5);
  const MemristorParams base = MemristorParams::NbSrTiO3();
  for (int i = 0; i < 50; ++i) {
    const MemristorParams p = var.Apply(base, rng);
    EXPECT_NO_THROW(p.Validate());
    EXPECT_LT(p.r_lrs_ohm, p.r_hrs_ohm);
  }
}

// ------------------------------------------------------------- dataset

TEST(SynthesisConfigTest, DefaultValidates) {
  EXPECT_NO_THROW(SynthesisConfig{}.Validate());
}

TEST(SynthesisConfigTest, RejectsBadGrids) {
  SynthesisConfig c;
  c.states_per_machine = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = SynthesisConfig{};
  c.read_voltages_v.clear();
  EXPECT_THROW(c.Validate(), std::invalid_argument);
}

TEST(DatasetTest, SynthesizeProducesFullGrid) {
  SynthesisConfig c;
  c.states_per_machine = 5;
  c.read_voltages_v = {0.5, 1.0};
  const MemristorDataset ds = MemristorDataset::Synthesize(c);
  // Each machine records the pristine state plus one state per pulse.
  EXPECT_EQ(ds.size(), 4u * (5u + 1u) * 2u);
}

// Records belonging to one state machine (programming family).
std::vector<DatasetRecord> Machine(const MemristorDataset& ds,
                                   int state_machine) {
  std::vector<DatasetRecord> out;
  for (const DatasetRecord& r : ds.records()) {
    if (r.state_machine == state_machine) out.push_back(r);
  }
  return out;
}

TEST(DatasetTest, StatesWithinMachineAreMonotone) {
  const MemristorDataset ds = MemristorDataset::Synthesize(SynthesisConfig{});
  for (int machine = 1; machine <= 4; ++machine) {
    double prev = -1.0;
    for (const DatasetRecord& r : Machine(ds, machine)) {
      if (r.read_voltage_v != Machine(ds, machine).front().read_voltage_v) {
        continue;  // compare one read-voltage slice only
      }
      EXPECT_GE(r.state, prev);
      prev = r.state;
    }
  }
}

TEST(DatasetTest, DistinctMachinesWalkDistinctTrajectories) {
  // Fig. 2: different programming amplitudes = different state machines.
  const MemristorDataset ds = MemristorDataset::Synthesize(SynthesisConfig{});
  const auto m1 = Machine(ds, 1);
  const auto m4 = Machine(ds, 4);
  ASSERT_FALSE(m1.empty());
  ASSERT_FALSE(m4.empty());
  // The pristine states coincide; the first-pulse states must not
  // (stronger programming amplitude = larger first step).
  auto first_pulse_state = [](const std::vector<DatasetRecord>& recs) {
    for (const DatasetRecord& r : recs) {
      if (r.state_index == 1) return r.state;
    }
    return -1.0;
  };
  EXPECT_NE(first_pulse_state(m1), first_pulse_state(m4));
}

TEST(DatasetTest, EnvelopeMatchesPaperNumbers) {
  // The synthetic dataset must reproduce the Sec. 6 energy envelope:
  // min about 0.01 fJ/bit/cell, max up to about 0.16 nJ/bit/cell.
  SynthesisConfig c;
  c.states_per_machine = 40;  // drive machines deep toward LRS
  const MemristorDataset ds = MemristorDataset::Synthesize(c);
  const EnergyEnvelope env = ds.ComputeEnvelope();
  EXPECT_LT(env.min_energy_j, 0.05e-15);  // at or below ~0.01 fJ scale
  EXPECT_GT(env.max_energy_j, 0.01e-9);   // reaches the nJ/10 scale
  EXPECT_LT(env.max_energy_j, 0.5e-9);
  EXPECT_GT(env.mean_energy_j, env.min_energy_j);
  EXPECT_LT(env.mean_energy_j, env.max_energy_j);
}

TEST(DatasetTest, EnvelopeThrowsOnEmpty) {
  MemristorDataset empty;
  EXPECT_THROW(empty.ComputeEnvelope(), std::logic_error);
}

TEST(DatasetTest, CsvRoundTrips) {
  SynthesisConfig c;
  c.states_per_machine = 3;
  c.read_voltages_v = {1.0};
  const MemristorDataset ds = MemristorDataset::Synthesize(c);
  std::stringstream ss;
  ds.SaveCsv(ss);
  const MemristorDataset loaded = MemristorDataset::LoadCsv(ss);
  ASSERT_EQ(loaded.size(), ds.size());
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(loaded.records()[i].state_machine,
              ds.records()[i].state_machine);
    EXPECT_DOUBLE_EQ(loaded.records()[i].resistance_ohm,
                     ds.records()[i].resistance_ohm);
    EXPECT_DOUBLE_EQ(loaded.records()[i].read_energy_j,
                     ds.records()[i].read_energy_j);
  }
}

TEST(DatasetTest, LoadRejectsGarbage) {
  std::stringstream empty;
  EXPECT_THROW(MemristorDataset::LoadCsv(empty), std::runtime_error);
  std::stringstream bad("header\n1,2,3\n");
  EXPECT_THROW(MemristorDataset::LoadCsv(bad), std::runtime_error);
}

MemristorDataset LoadCsvText(const std::string& text) {
  std::stringstream in(text);
  return MemristorDataset::LoadCsv(in);
}

TEST(DatasetTest, LoadRejectsPartiallyParsedCells) {
  const std::string header = "header\n";
  const std::string good = "1,0,1,0,0,1e12,0.5,5e-13,2.5e-16\n";
  ASSERT_EQ(LoadCsvText(header + good).size(), 1u);
  // An integer column holding a fraction, a number with trailing junk,
  // and non-finite values.
  const char* const kBadRows[] = {
      "1.5,0,1,0,0,1e12,0.5,5e-13,2.5e-16\n",
      "1,0,1,0,0,1e12,0.5abc,5e-13,2.5e-16\n",
      "1,0,1,0,0,1e12,0.5,5e-13,nan\n",
      "1,0,1,0,0,inf,0.5,5e-13,2.5e-16\n",
      "1,0,1,7x,0,1e12,0.5,5e-13,2.5e-16\n",
  };
  for (const char* row : kBadRows) {
    try {
      LoadCsvText(header + good + row);
      ADD_FAILURE() << "accepted " << row;
    } catch (const std::runtime_error& e) {
      // The message names the offending line.
      EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
          << e.what();
    }
  }
}

// Property: LoadCsv never crashes or throws anything but
// std::runtime_error on random garbage and on truncated or bit-flipped
// copies of the shipped dataset.
class DatasetCsvGarbageFuzz : public ::testing::TestWithParam<std::uint64_t> {
};

void LoadCsvOrReject(const std::string& text) {
  try {
    LoadCsvText(text);
  } catch (const std::runtime_error&) {
  }
}

std::string ShippedCsv() {
  std::ifstream in(ANALOGNF_DATA_DIR "/nb_srtio3_synthetic.csv");
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

TEST_P(DatasetCsvGarbageFuzz, GarbageNeverCrashes) {
  analognf::RandomStream rng(GetParam());
  const std::string shipped = ShippedCsv();
  const std::string header = shipped.substr(0, shipped.find('\n') + 1);
  // Digits, separators and the letters of nan/inf/e are drawn often so
  // that the garbage reaches the numeric parsers.
  const std::string alphabet = "0123456789.,,,\n-+eEnaifx ";
  for (int iter = 0; iter < 500; ++iter) {
    std::string text = iter % 2 == 0 ? header : std::string();
    const auto len = static_cast<std::size_t>(rng.NextIndex(200));
    for (std::size_t i = 0; i < len; ++i) {
      text.push_back(iter % 4 < 2
                         ? alphabet[rng.NextIndex(alphabet.size())]
                         : static_cast<char>(rng.NextIndex(256)));
    }
    EXPECT_NO_THROW(LoadCsvOrReject(text));
  }
}

TEST_P(DatasetCsvGarbageFuzz, TruncationsAndBitFlipsNeverCrash) {
  analognf::RandomStream rng(GetParam() ^ 0x7777);
  const std::string shipped = ShippedCsv();
  const MemristorDataset full = LoadCsvText(shipped);
  ASSERT_EQ(full.size(), 600u);
  // Every cut through the first rows, then random cuts over the file. A
  // cut may leave a shorter valid file (for example inside a number's
  // exponent); it must then hold a prefix of the rows.
  std::vector<std::size_t> cuts;
  for (std::size_t cut = 0; cut < 1024; ++cut) cuts.push_back(cut);
  for (int i = 0; i < 100; ++i) {
    cuts.push_back(static_cast<std::size_t>(rng.NextIndex(shipped.size())));
  }
  for (const std::size_t cut : cuts) {
    try {
      const MemristorDataset part = LoadCsvText(shipped.substr(0, cut));
      ASSERT_LE(part.size(), full.size()) << cut;
      for (std::size_t i = 0; i + 1 < part.size(); ++i) {
        EXPECT_EQ(part.records()[i].read_energy_j,
                  full.records()[i].read_energy_j)
            << cut;
      }
    } catch (const std::runtime_error&) {
    }
  }
  for (int iter = 0; iter < 300; ++iter) {
    std::string copy = shipped;
    const auto pos = static_cast<std::size_t>(rng.NextIndex(copy.size()));
    copy[pos] = static_cast<char>(copy[pos] ^ (1 << rng.NextIndex(8)));
    EXPECT_NO_THROW(LoadCsvOrReject(copy));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DatasetCsvGarbageFuzz,
                         ::testing::Values(7, 8, 9));

TEST(DatasetTest, DistinctResistancesSortedAscending) {
  const MemristorDataset ds = MemristorDataset::Synthesize(SynthesisConfig{});
  const auto levels = ds.DistinctResistances();
  EXPECT_GT(levels.size(), 4u);
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_GT(levels[i], levels[i - 1]);
  }
}

TEST(DatasetTest, CheapestReadPrefersHighResistance) {
  const MemristorDataset ds = MemristorDataset::Synthesize(SynthesisConfig{});
  const DatasetRecord cheapest = ds.CheapestReadAt(0.1);
  for (const DatasetRecord& r : ds.records()) {
    if (r.read_voltage_v == 0.1) {
      EXPECT_LE(cheapest.read_energy_j, r.read_energy_j);
    }
  }
}

TEST(DatasetTest, CheapestReadThrowsOnUnknownVoltage) {
  const MemristorDataset ds = MemristorDataset::Synthesize(SynthesisConfig{});
  EXPECT_THROW(ds.CheapestReadAt(123.0), std::invalid_argument);
}

// ------------------------------------------------------------ quantizer

TEST(StateQuantizerTest, RejectsBadConstruction) {
  EXPECT_THROW(StateQuantizer(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(StateQuantizer(0.0, 1.0, 1), std::invalid_argument);
}

TEST(StateQuantizerTest, EndpointsExact) {
  StateQuantizer q(0.0, 1.0, 5);
  EXPECT_EQ(q.Quantize(0.0), 0.0);
  EXPECT_EQ(q.Quantize(1.0), 1.0);
}

TEST(StateQuantizerTest, ClampsOutOfRange) {
  StateQuantizer q(0.0, 1.0, 5);
  EXPECT_EQ(q.Quantize(-3.0), 0.0);
  EXPECT_EQ(q.Quantize(3.0), 1.0);
}

TEST(StateQuantizerTest, LadderHasExpectedRungs) {
  StateQuantizer q(0.0, 1.0, 5);
  ASSERT_EQ(q.levels(), 5u);
  for (std::size_t i = 0; i < q.levels(); ++i) {
    EXPECT_NEAR(q.ValueOf(i), 0.25 * static_cast<double>(i), 1e-12);
  }
}

TEST(StateQuantizerTest, ValueOfRejectsOutOfRange) {
  StateQuantizer q(0.0, 1.0, 5);
  EXPECT_THROW(q.ValueOf(5), std::out_of_range);
}

// Property: quantisation error never exceeds half a step.
class QuantizerError : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantizerError, BoundedByHalfStep) {
  const std::size_t levels = GetParam();
  StateQuantizer q(-2.0, 4.0, levels);
  const double half_step = 6.0 / static_cast<double>(levels - 1) / 2.0;
  analognf::RandomStream rng(levels);
  for (int i = 0; i < 500; ++i) {
    const double x = -2.0 + 6.0 * rng.NextUniform();
    EXPECT_LE(std::fabs(q.Quantize(x) - x), half_step + 1e-12);
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantizerError,
                         ::testing::Values(2, 3, 8, 16, 64, 256));

// Property: Quantize is idempotent.
class QuantizerIdempotent : public ::testing::TestWithParam<std::size_t> {};

TEST_P(QuantizerIdempotent, QuantizeTwiceEqualsOnce) {
  StateQuantizer q(0.0, 1.0, GetParam());
  analognf::RandomStream rng(99);
  for (int i = 0; i < 200; ++i) {
    const double x = rng.NextUniform();
    EXPECT_EQ(q.Quantize(q.Quantize(x)), q.Quantize(x));
  }
}

INSTANTIATE_TEST_SUITE_P(Levels, QuantizerIdempotent,
                         ::testing::Values(2, 7, 33, 128));


// ------------------------------------------------------------ retention

TEST(MemristorRetentionTest, IdealRetentionIsNoOp) {
  Memristor m(MemristorParams::NbSrTiO3(), 0.7);
  m.Relax(3600.0);
  EXPECT_EQ(m.state(), 0.7);
}

TEST(MemristorRetentionTest, StateDecaysTowardHrs) {
  MemristorParams p = MemristorParams::NbSrTiO3();
  p.retention_time_constant_s = 10.0;
  Memristor m(p, 0.8);
  m.Relax(10.0);
  EXPECT_NEAR(m.state(), 0.8 * std::exp(-1.0), 1e-9);
  m.Relax(10.0);
  EXPECT_NEAR(m.state(), 0.8 * std::exp(-2.0), 1e-9);
}

TEST(MemristorRetentionTest, RelaxRejectsNegativeTime) {
  Memristor m(MemristorParams::NbSrTiO3(), 0.5);
  EXPECT_THROW(m.Relax(-1.0), std::invalid_argument);
}

TEST(MemristorRetentionTest, NegativeTimeConstantRejected) {
  MemristorParams p = MemristorParams::NbSrTiO3();
  p.retention_time_constant_s = -1.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}


// ------------------------------------------------------- hysteresis

TEST(HysteresisTest, ConfigValidation) {
  HysteresisSweepConfig c;
  EXPECT_NO_THROW(c.Validate());
  // dt = inf would make the first sample time inf * 0 = NaN.
  c.period_s = std::numeric_limits<double>::infinity();
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  // The sample count cycles * kSamplesPerCycle must fit an int. Checked
  // through Validate() only: a valid maximum would allocate ~2^31 points.
  constexpr int kMaxCycles =
      std::numeric_limits<int>::max() / HysteresisSweepConfig::kSamplesPerCycle;
  c = HysteresisSweepConfig{};
  c.cycles = kMaxCycles;
  EXPECT_NO_THROW(c.Validate());
  c.cycles = kMaxCycles + 1;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c.cycles = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
}

TEST(HysteresisTest, LoopIsPinchedAtOrigin) {
  // Chua's signature: zero voltage => zero current, always.
  Memristor device(MemristorParams::NbSrTiO3(), 0.5);
  const auto trace = TraceHysteresis(device, HysteresisSweepConfig{});
  for (const IvPoint& p : trace) {
    if (std::fabs(p.voltage_v) < 1e-9) {
      EXPECT_LT(std::fabs(p.current_a), 1e-15);
    }
  }
}

TEST(HysteresisTest, LoopHasFiniteArea) {
  // The up-sweep and down-sweep branches diverge because the state
  // moves under drive: a resistor would trace a line (area ~ 0).
  Memristor device(MemristorParams::NbSrTiO3(), 0.5);
  const auto trace = TraceHysteresis(device, HysteresisSweepConfig{});
  EXPECT_GT(LoopArea(trace), 1e-12);
}

TEST(HysteresisTest, StateMovesDuringSweep) {
  Memristor device(MemristorParams::NbSrTiO3(), 0.5);
  const auto trace = TraceHysteresis(device, HysteresisSweepConfig{});
  double min_state = 1.0;
  double max_state = 0.0;
  for (const IvPoint& p : trace) {
    min_state = std::min(min_state, p.state);
    max_state = std::max(max_state, p.state);
  }
  EXPECT_GT(max_state - min_state, 0.05);
}

TEST(HysteresisTest, FasterDriveShrinksLoop) {
  // At high frequency the state cannot follow the drive: the loop
  // collapses toward a line (the classic frequency dependence).
  HysteresisSweepConfig slow;
  slow.period_s = 0.5;
  HysteresisSweepConfig fast;
  fast.period_s = 0.002;
  Memristor slow_dev(MemristorParams::NbSrTiO3(), 0.5);
  Memristor fast_dev(MemristorParams::NbSrTiO3(), 0.5);
  const double slow_area = LoopArea(TraceHysteresis(slow_dev, slow));
  const double fast_area = LoopArea(TraceHysteresis(fast_dev, fast));
  EXPECT_LT(fast_area, slow_area);
}


// ------------------------------------------------------- temperature

TEST(ThermalTest, CalibrationPointIsUnity) {
  EXPECT_NEAR(ThermalActivationFactor(MemristorParams::NbSrTiO3()), 1.0,
              1e-12);
}

TEST(ThermalTest, HotterSwitchesFaster) {
  MemristorParams hot = MemristorParams::NbSrTiO3();
  hot.temperature_k = 350.0;
  MemristorParams cold = MemristorParams::NbSrTiO3();
  cold.temperature_k = 250.0;
  EXPECT_GT(ThermalActivationFactor(hot), 1.0);
  EXPECT_LT(ThermalActivationFactor(cold), 1.0);

  Memristor hot_dev(hot, 0.3);
  Memristor cold_dev(cold, 0.3);
  hot_dev.ApplyPulse(1.0, 1e-4);
  cold_dev.ApplyPulse(1.0, 1e-4);
  EXPECT_GT(hot_dev.state(), cold_dev.state());
}

TEST(ThermalTest, HotterForgetsFaster) {
  MemristorParams hot = MemristorParams::NbSrTiO3();
  hot.temperature_k = 350.0;
  hot.retention_time_constant_s = 10.0;
  MemristorParams nominal = MemristorParams::NbSrTiO3();
  nominal.retention_time_constant_s = 10.0;
  Memristor hot_dev(hot, 0.8);
  Memristor nominal_dev(nominal, 0.8);
  hot_dev.Relax(5.0);
  nominal_dev.Relax(5.0);
  EXPECT_LT(hot_dev.state(), nominal_dev.state());
}

TEST(ThermalTest, Validation) {
  MemristorParams p = MemristorParams::NbSrTiO3();
  p.temperature_k = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = MemristorParams::NbSrTiO3();
  p.activation_energy_ev = -1.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(ThermalTest, ZeroActivationEnergyIsTemperatureIndependent) {
  MemristorParams p = MemristorParams::NbSrTiO3();
  p.activation_energy_ev = 0.0;
  p.temperature_k = 400.0;
  EXPECT_NEAR(ThermalActivationFactor(p), 1.0, 1e-12);
}

}  // namespace
}  // namespace analognf::device
