// Tests for the analog substrate: signal maps, noisy channels, data
// converters, differentiators and the memristor crossbar.
#include <gtest/gtest.h>

#include <cmath>
#include <type_traits>

#include "analognf/analog/converter.hpp"
#include "analognf/analog/crossbar.hpp"
#include "analognf/analog/differentiator.hpp"
#include "analognf/analog/noise.hpp"
#include "analognf/analog/signal.hpp"
#include "analognf/common/stats.hpp"

namespace analognf::analog {
namespace {

// ----------------------------------------------------------- signal

// True when VoltageRange(Lo, Hi) is a constant expression, i.e. compiles.
template <double Lo, double Hi>
concept ConstantRange = requires {
  typename std::bool_constant<(VoltageRange(Lo, Hi), true)>;
};

TEST(VoltageRangeTest, RejectsEmptyRange) {
  static_assert(ConstantRange<1.0, 4.0>);
  static_assert(!ConstantRange<1.0, 1.0>);
  static_assert(!ConstantRange<2.0, 1.0>);
}

TEST(VoltageRangeTest, ClampAndContains) {
  VoltageRange r(1.0, 4.0);
  EXPECT_TRUE(r.Contains(2.5));
  EXPECT_FALSE(r.Contains(0.0));
  EXPECT_EQ(r.Clamp(5.0), 4.0);
  EXPECT_EQ(r.Clamp(-5.0), 1.0);
  EXPECT_EQ(r.span(), 3.0);
}

TEST(VoltageRangeTest, NormalizeRoundTrips) {
  VoltageRange r(-2.0, 1.0);
  for (double v : {-2.0, -1.0, 0.0, 1.0}) {
    EXPECT_NEAR(r.Denormalize(r.Normalize(v)), v, 1e-12);
  }
}

TEST(LinearMapTest, MapsEndpoints) {
  LinearMap map(0.0, 0.060, VoltageRange(1.0, 4.0));
  EXPECT_NEAR(map.ToVoltage(0.0), 1.0, 1e-12);
  EXPECT_NEAR(map.ToVoltage(0.060), 4.0, 1e-12);
  EXPECT_NEAR(map.ToVoltage(0.030), 2.5, 1e-12);
}

TEST(LinearMapTest, ClampsOutOfDomain) {
  LinearMap map(0.0, 1.0, VoltageRange(0.0, 2.0));
  EXPECT_EQ(map.ToVoltage(5.0), 2.0);
  EXPECT_EQ(map.ToVoltage(-5.0), 0.0);
}

TEST(LinearMapTest, RejectsEmptyFeatureDomain) {
  EXPECT_THROW(LinearMap(1.0, 1.0, VoltageRange(0.0, 1.0)),
               std::invalid_argument);
}

// ------------------------------------------------------------ noise

TEST(ChannelParamsTest, ValidatesRanges) {
  ChannelParams p;
  p.line_gain = 0.0;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = ChannelParams{};
  p.line_gain = 1.1;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
  p = ChannelParams{};
  p.awgn_sigma_v = -0.1;
  EXPECT_THROW(p.Validate(), std::invalid_argument);
}

TEST(AnalogChannelTest, IdealIsIdentity) {
  AnalogChannel ch(ChannelParams::Ideal(), RandomStream(0));
  for (double v : {-2.0, 0.0, 1.5, 4.0}) {
    EXPECT_EQ(ch.Transmit(v), v);
  }
}

TEST(AnalogChannelTest, LineGainAttenuates) {
  ChannelParams p;
  p.line_gain = 0.9;
  AnalogChannel ch(p, RandomStream(1));
  EXPECT_NEAR(ch.Transmit(2.0), 1.8, 1e-12);
}

TEST(AnalogChannelTest, AwgnHasExpectedMoments) {
  ChannelParams p = ChannelParams::Noisy(0.05);
  AnalogChannel ch(p, RandomStream(2));
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(ch.Transmit(1.0));
  EXPECT_NEAR(stats.mean(), 1.0, 0.002);
  EXPECT_NEAR(stats.stddev(), 0.05, 0.003);
}

TEST(AnalogChannelTest, InterferenceIsBounded) {
  ChannelParams p;
  p.interference_peak_v = 0.1;
  AnalogChannel ch(p, RandomStream(3));
  for (int i = 0; i < 1000; ++i) {
    const double v = ch.Transmit(2.0);
    EXPECT_GE(v, 1.9 - 1e-12);
    EXPECT_LE(v, 2.1 + 1e-12);
  }
}

TEST(AnalogChannelTest, InterferenceAveragesOut) {
  ChannelParams p;
  p.interference_peak_v = 0.2;
  AnalogChannel ch(p, RandomStream(4));
  RunningStats stats;
  for (int i = 0; i < 10000; ++i) stats.Add(ch.Transmit(0.0));
  EXPECT_NEAR(stats.mean(), 0.0, 0.01);
}

// -------------------------------------------------------- converters

TEST(DacTest, RejectsBadBits) {
  LinearMap map(0.0, 1.0, VoltageRange(0.0, 1.0));
  EXPECT_THROW(Dac(map, 0), std::invalid_argument);
  EXPECT_THROW(Dac(map, 25), std::invalid_argument);
}

TEST(DacTest, EndpointsExact) {
  LinearMap map(0.0, 0.060, VoltageRange(1.0, 4.0));
  Dac dac(map, 10);
  EXPECT_NEAR(dac.Convert(0.0), 1.0, 1e-12);
  EXPECT_NEAR(dac.Convert(0.060), 4.0, 1e-12);
}

TEST(DacTest, QuantizationErrorBoundedByHalfLsb) {
  LinearMap map(0.0, 1.0, VoltageRange(0.0, 3.0));
  Dac dac(map, 8);
  const double half_lsb = dac.LsbVolts() / 2.0;
  RandomStream rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double f = rng.NextUniform();
    const double ideal = map.ToVoltage(f);
    EXPECT_LE(std::fabs(dac.Convert(f) - ideal), half_lsb + 1e-12);
  }
}

TEST(DacTest, MonotoneInFeature) {
  LinearMap map(0.0, 1.0, VoltageRange(0.0, 3.0));
  Dac dac(map, 6);
  double prev = -1.0;
  for (double f = 0.0; f <= 1.0; f += 0.001) {
    const double v = dac.Convert(f);
    EXPECT_GE(v, prev - 1e-12);
    prev = v;
  }
}

TEST(DacTest, MoreBitsSmallerLsb) {
  LinearMap map(0.0, 1.0, VoltageRange(0.0, 1.0));
  EXPECT_GT(Dac(map, 4).LsbVolts(), Dac(map, 12).LsbVolts());
}

// ----------------------------------------------------- differentiator

TEST(DifferentiatorTest, RejectsBadTimeConstant) {
  EXPECT_THROW(Differentiator(0.0), std::invalid_argument);
}

TEST(DifferentiatorTest, FirstSampleYieldsZero) {
  Differentiator d(0.01);
  EXPECT_EQ(d.Step(0.0, 5.0), 0.0);
}

TEST(DifferentiatorTest, ConstantInputYieldsZero) {
  Differentiator d(0.01);
  for (int i = 0; i <= 100; ++i) {
    d.Step(0.001 * i, 7.0);
  }
  EXPECT_NEAR(d.Output(), 0.0, 1e-9);
}

TEST(DifferentiatorTest, RampConvergesToSlope) {
  Differentiator d(0.005);
  const double slope = 3.0;
  double out = 0.0;
  for (int i = 0; i <= 2000; ++i) {
    const double t = 0.0005 * i;
    out = d.Step(t, slope * t);
  }
  EXPECT_NEAR(out, slope, 0.05);
}

TEST(DifferentiatorTest, NegativeSlopeDetected) {
  Differentiator d(0.005);
  double out = 0.0;
  for (int i = 0; i <= 2000; ++i) {
    const double t = 0.0005 * i;
    out = d.Step(t, -2.0 * t);
  }
  EXPECT_NEAR(out, -2.0, 0.05);
}

TEST(DifferentiatorTest, BackwardsTimeThrows) {
  Differentiator d(0.01);
  d.Step(1.0, 0.0);
  EXPECT_THROW(d.Step(0.5, 0.0), std::invalid_argument);
}

TEST(DifferentiatorTest, CoincidentSampleHoldsOutput) {
  Differentiator d(0.01);
  d.Step(0.0, 0.0);
  d.Step(0.1, 1.0);
  const double out = d.Output();
  EXPECT_EQ(d.Step(0.1, 100.0), out);
}

TEST(DerivativeChainTest, RejectsBadOrder) {
  EXPECT_THROW(DerivativeChain(0, 0.01), std::invalid_argument);
  EXPECT_THROW(DerivativeChain(99, 0.01), std::invalid_argument);
}

TEST(DerivativeChainTest, OrderZeroIsInput) {
  DerivativeChain chain(3, 0.01);
  const auto& out = chain.Step(0.0, 42.0);
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0], 42.0);
}

TEST(DerivativeChainTest, QuadraticHasConstantSecondDerivative) {
  DerivativeChain chain(2, 0.002);
  std::vector<double> out;
  for (int i = 0; i <= 4000; ++i) {
    const double t = 0.0005 * i;
    out = chain.Step(t, 0.5 * 4.0 * t * t);  // x = 2 t^2, x'' = 4
  }
  EXPECT_NEAR(out[2], 4.0, 0.4);
}

// --------------------------------------------------------- crossbar

// Programs every cell to its conductance target (row-major), the way the
// crossbar's users do: one SetResistance per cell.
void Program(Crossbar& xbar, const std::vector<double>& siemens) {
  ASSERT_EQ(siemens.size(), xbar.rows() * xbar.cols());
  for (std::size_t i = 0; i < siemens.size(); ++i) {
    xbar.At(i / xbar.cols(), i % xbar.cols()).SetResistance(1.0 / siemens[i]);
  }
}

// One evaluation into a fresh current vector.
std::vector<double> Multiply(Crossbar& xbar, const std::vector<double>& v) {
  std::vector<double> currents(xbar.cols());
  xbar.MultiplyInto(v, currents);
  return currents;
}

TEST(CrossbarTest, RejectsZeroDimensions) {
  EXPECT_THROW(Crossbar(0, 2, device::MemristorParams::NbSrTiO3()),
               std::invalid_argument);
}

TEST(CrossbarTest, MultiplyMatchesManualSum) {
  Crossbar xbar(2, 3, device::MemristorParams::NbSrTiO3());
  // Program known conductances (within the device range: conductance
  // must stay at or below 1/r_lrs = 1e-8 S).
  std::vector<double> g = {1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9};
  Program(xbar, g);
  const std::vector<double> v = {1.0, 2.0};
  const std::vector<double> currents = Multiply(xbar, v);
  ASSERT_EQ(currents.size(), 3u);
  for (std::size_t c = 0; c < 3; ++c) {
    const double expected = v[0] * g[c] + v[1] * g[3 + c];
    EXPECT_NEAR(currents[c], expected, expected * 1e-6);
  }
}

TEST(CrossbarTest, EnergyAccumulatesAndResets) {
  Crossbar xbar(2, 2, device::MemristorParams::NbSrTiO3());
  Program(xbar, {1e-8, 1e-8, 1e-8, 1e-8});
  EXPECT_EQ(xbar.ConsumedEnergyJ(), 0.0);
  Multiply(xbar, {1.0, 1.0});
  const double e1 = xbar.ConsumedEnergyJ();
  EXPECT_GT(e1, 0.0);
  Multiply(xbar, {1.0, 1.0});
  EXPECT_NEAR(xbar.ConsumedEnergyJ(), 2.0 * e1, 1e-18);
  xbar.ResetEnergy();
  EXPECT_EQ(xbar.ConsumedEnergyJ(), 0.0);
}

TEST(CrossbarTest, ZeroVoltageRowCostsNothing) {
  Crossbar xbar(1, 1, device::MemristorParams::NbSrTiO3());
  Program(xbar, {1e-8});
  Multiply(xbar, {0.0});
  EXPECT_EQ(xbar.ConsumedEnergyJ(), 0.0);
}

TEST(CrossbarTest, SizeMismatchThrows) {
  Crossbar xbar(2, 2, device::MemristorParams::NbSrTiO3());
  EXPECT_THROW(Multiply(xbar, {1.0}), std::invalid_argument);
}

TEST(CrossbarTest, AtBoundsChecked) {
  Crossbar xbar(2, 2, device::MemristorParams::NbSrTiO3());
  EXPECT_NO_THROW(xbar.At(1, 1));
  EXPECT_THROW(xbar.At(2, 0), std::out_of_range);
}

TEST(CrossbarTest, DeviceVariationChangesCells) {
  device::DeviceVariation var;
  var.resistance_sigma = 0.3;
  Crossbar xbar(1, 2, device::MemristorParams::NbSrTiO3(), &var, 42);
  // With variation, two cells programmed to the same state should show
  // different resistances.
  xbar.At(0, 0).SetState(0.5);
  xbar.At(0, 1).SetState(0.5);
  EXPECT_NE(xbar.At(0, 0).ResistanceOhm(), xbar.At(0, 1).ResistanceOhm());
}

// Property: programming any conductance in range through the cell API
// and reading it back is close.
class CrossbarProgram : public ::testing::TestWithParam<double> {};

TEST_P(CrossbarProgram, ProgramReadbackIsClose) {
  Crossbar xbar(1, 1, device::MemristorParams::NbSrTiO3());
  const double g = GetParam();
  Program(xbar, {g});
  EXPECT_NEAR(xbar.At(0, 0).ConductanceS() / g, 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Conductances, CrossbarProgram,
                         ::testing::Values(1e-12, 1e-11, 1e-10, 1e-9, 1e-8));

TEST(ChannelParamsTest, IsStatelessDetectsNoiseSources) {
  EXPECT_TRUE(ChannelParams::Ideal().IsStateless());
  EXPECT_FALSE(ChannelParams::Noisy(0.1).IsStateless());
  ChannelParams p;
  p.interference_peak_v = 0.2;
  EXPECT_FALSE(p.IsStateless());
}

}  // namespace
}  // namespace analognf::analog
