// Unit and property tests for the common substrate: RNG, statistics,
// time series, and report formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "analognf/common/rng.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/common/table.hpp"
#include "analognf/common/timeseries.hpp"
#include "analognf/common/units.hpp"

namespace analognf {
namespace {

// ---------------------------------------------------------------- RNG

TEST(SplitMix64Test, IsDeterministic) {
  SplitMix64 a(42);
  SplitMix64 b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(SplitMix64Test, DifferentSeedsDiffer) {
  SplitMix64 a(1);
  SplitMix64 b(2);
  EXPECT_NE(a.Next(), b.Next());
}

TEST(Xoshiro256Test, IsDeterministic) {
  Xoshiro256 a(7);
  Xoshiro256 b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RandomStreamTest, UniformInUnitInterval) {
  RandomStream rng(1);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextUniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RandomStreamTest, UniformMeanIsHalf) {
  RandomStream rng(2);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextUniform());
  EXPECT_NEAR(stats.mean(), 0.5, 0.01);
}

TEST(RandomStreamTest, UniformRangeRespectsBounds) {
  RandomStream rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = -3.0 + 8.0 * rng.NextUniform();
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(RandomStreamTest, NextIndexStaysBelowBound) {
  RandomStream rng(4);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.NextIndex(7), 7u);
  }
}

TEST(RandomStreamTest, NextIndexCoversAllValues) {
  RandomStream rng(5);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) {
    ++counts[static_cast<std::size_t>(rng.NextIndex(5))];
  }
  for (int c : counts) EXPECT_GT(c, 700);  // ~1000 expected each
}

TEST(RandomStreamTest, ExponentialMeanMatchesRate) {
  RandomStream rng(6);
  RunningStats stats;
  const double rate = 4.0;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextExponential(rate));
  EXPECT_NEAR(stats.mean(), 1.0 / rate, 0.01);
}

TEST(RandomStreamTest, ExponentialIsPositive) {
  RandomStream rng(7);
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.NextExponential(2.0), 0.0);
}

TEST(RandomStreamTest, NormalMomentsMatch) {
  RandomStream rng(8);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.NextNormal(3.0, 2.0));
  EXPECT_NEAR(stats.mean(), 3.0, 0.05);
  EXPECT_NEAR(stats.stddev(), 2.0, 0.05);
}

TEST(RandomStreamTest, BernoulliEdgesAreDeterministic) {
  RandomStream rng(12);
  EXPECT_FALSE(rng.NextBernoulli(0.0));
  EXPECT_TRUE(rng.NextBernoulli(1.0));
  EXPECT_FALSE(rng.NextBernoulli(-0.5));
  EXPECT_TRUE(rng.NextBernoulli(1.5));
}

TEST(RandomStreamTest, BernoulliFrequencyMatchesP) {
  RandomStream rng(13);
  int hits = 0;
  for (int i = 0; i < 50000; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / 50000.0, 0.3, 0.01);
}

TEST(RandomStreamTest, SameSeedIsBitIdentical) {
  RandomStream a(0x5eed), b(0x5eed);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.NextUniform(), b.NextUniform());
    EXPECT_EQ(a.NextIndex(1000), b.NextIndex(1000));
    EXPECT_EQ(a.NextExponential(2.0), b.NextExponential(2.0));
  }
}

// Streams seeded differently must be statistically independent — the
// property the per-port traffic sources rely on (each port derives its
// own seed, so ports must not march in lockstep). Nearby seeds are the
// adversarial case for a weak seeding path.
TEST(RandomStreamTest, DifferentSeedsAreIndependent) {
  for (const auto& [s1, s2] : {std::pair<std::uint64_t, std::uint64_t>{1, 2},
                               {0xdead, 0xdeae},
                               {0, ~std::uint64_t{0}}}) {
    RandomStream a(s1), b(s2);
    RunningStats prod;  // E[(u1-0.5)(u2-0.5)] = 0 for independence
    int equal = 0;
    for (int i = 0; i < 4000; ++i) {
      const double ua = a.NextUniform();
      const double ub = b.NextUniform();
      if (ua == ub) ++equal;
      prod.Add((ua - 0.5) * (ub - 0.5));
    }
    // Correlation |rho| = |mean| / (1/12) small, and no exact collisions
    // (doubles from distinct xoshiro streams virtually never coincide).
    EXPECT_LT(std::abs(prod.mean()) * 12.0, 0.08)
        << "seeds " << s1 << ", " << s2;
    EXPECT_LE(equal, 1) << "seeds " << s1 << ", " << s2;
  }
}

// ---------------------------------------------------------------- stats

TEST(RunningStatsTest, EmptyDefaults) {
  RunningStats stats;
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.count(), 0u);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.variance(), 0.0);
  // Regression: min_/max_ must be deterministic sentinels, not garbage.
  EXPECT_EQ(stats.min(), std::numeric_limits<double>::infinity());
  EXPECT_EQ(stats.max(), -std::numeric_limits<double>::infinity());
}

TEST(RunningStatsTest, FirstSampleOverwritesSentinels) {
  // Any finite first sample must become both min and max, even one that
  // an uninitialised min_/max_ pair would have mishandled.
  for (const double first : {-1.0e12, 0.0, 1.0e12}) {
    RunningStats stats;
    stats.Add(first);
    EXPECT_EQ(stats.min(), first);
    EXPECT_EQ(stats.max(), first);
    stats.Reset();
    EXPECT_EQ(stats.min(), std::numeric_limits<double>::infinity());
    EXPECT_EQ(stats.max(), -std::numeric_limits<double>::infinity());
  }
}

TEST(RunningStatsTest, SingleSample) {
  RunningStats stats;
  stats.Add(5.0);
  EXPECT_EQ(stats.count(), 1u);
  EXPECT_EQ(stats.mean(), 5.0);
  EXPECT_EQ(stats.min(), 5.0);
  EXPECT_EQ(stats.max(), 5.0);
  EXPECT_EQ(stats.variance(), 0.0);
}

TEST(RunningStatsTest, MatchesBatchComputation) {
  RunningStats stats;
  const std::vector<double> xs = {1.0, 2.0, 4.0, 8.0, 16.0};
  double sum = 0.0;
  for (double x : xs) {
    stats.Add(x);
    sum += x;
  }
  const double mean = sum / 5.0;
  double ss = 0.0;
  for (double x : xs) ss += (x - mean) * (x - mean);
  EXPECT_NEAR(stats.mean(), mean, 1e-12);
  EXPECT_NEAR(stats.variance(), ss / 4.0, 1e-12);
  EXPECT_EQ(stats.min(), 1.0);
  EXPECT_EQ(stats.max(), 16.0);
  EXPECT_NEAR(stats.sum(), sum, 1e-12);
}

TEST(RunningStatsTest, ResetClears) {
  RunningStats stats;
  stats.Add(1.0);
  stats.Reset();
  EXPECT_TRUE(stats.empty());
}

TEST(EwmaTest, RejectsBadWeight) {
  EXPECT_THROW(Ewma(0.0), std::invalid_argument);
  EXPECT_THROW(Ewma(1.5), std::invalid_argument);
  EXPECT_NO_THROW(Ewma(1.0));
}

TEST(EwmaTest, FirstSampleInitializes) {
  Ewma ewma(0.1);
  EXPECT_FALSE(ewma.initialized());
  EXPECT_EQ(ewma.Update(10.0), 10.0);
  EXPECT_TRUE(ewma.initialized());
}

TEST(EwmaTest, ConvergesTowardConstant) {
  Ewma ewma(0.2);
  ewma.Update(0.0);
  for (int i = 0; i < 100; ++i) ewma.Update(5.0);
  EXPECT_NEAR(ewma.value(), 5.0, 1e-6);
}

TEST(EwmaTest, WeightOneTracksExactly) {
  Ewma ewma(1.0);
  ewma.Update(1.0);
  EXPECT_EQ(ewma.Update(42.0), 42.0);
}

// PercentileInPlace on a copy, so a test can pass a literal set.
double PercentileOf(std::vector<double> xs, double q) {
  return PercentileInPlace(xs, q);
}

TEST(PercentileTest, ThrowsOnEmpty) {
  EXPECT_THROW(PercentileOf({}, 0.5), std::invalid_argument);
}

TEST(PercentileTest, MedianOfOddSet) {
  EXPECT_EQ(PercentileOf({3.0, 1.0, 2.0}, 0.5), 2.0);
}

TEST(PercentileTest, Extremes) {
  const std::vector<double> xs = {5.0, 1.0, 9.0};
  EXPECT_EQ(PercentileOf(xs, 0.0), 1.0);
  EXPECT_EQ(PercentileOf(xs, 1.0), 9.0);
}

TEST(PercentileTest, Interpolates) {
  EXPECT_NEAR(PercentileOf({0.0, 10.0}, 0.25), 2.5, 1e-12);
}

// The interpolated percentile by full sort: the definition that the
// O(n) selection in PercentileInPlace must reproduce bit for bit.
double SortedPercentile(std::vector<double> xs, double q) {
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

TEST(PercentileTest, SelectionIsBitIdenticalToSort) {
  RandomStream rng(17);
  std::vector<std::vector<double>> inputs = {{4.25}};  // size 1
  for (std::size_t n : {2u, 3u, 10u, 101u, 1000u}) {
    std::vector<double> random, duplicates;
    for (std::size_t i = 0; i < n; ++i) {
      random.push_back(rng.NextNormal(0.0, 10.0));
      duplicates.push_back(static_cast<double>(rng.NextIndex(4)) * 0.1);
    }
    inputs.push_back(random);
    inputs.push_back(duplicates);
  }
  for (const std::vector<double>& xs : inputs) {
    for (double q : {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 1.0}) {
      SCOPED_TRACE(testing::Message() << "n=" << xs.size() << " q=" << q);
      const double expected = SortedPercentile(xs, q);
      std::vector<double> scratch = xs;
      EXPECT_EQ(PercentileInPlace(scratch, q), expected);
      // Selecting twice from the reordered scratch (p50, then p99 in the
      // experiment grid) stays exact.
      EXPECT_EQ(PercentileInPlace(scratch, 0.99), SortedPercentile(xs, 0.99));
    }
  }
  std::vector<double> empty;
  EXPECT_THROW(PercentileInPlace(empty, 0.5), std::invalid_argument);
}

// ------------------------------------------------------------ timeseries

TEST(TimeSeriesTest, AppendsInOrder) {
  TimeSeries ts("x");
  ts.Append(0.0, 1.0);
  ts.Append(1.0, 2.0);
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_EQ(ts[1].value, 2.0);
}

TEST(TimeSeriesTest, RejectsBackwardsTime) {
  TimeSeries ts;
  ts.Append(2.0, 0.0);
  EXPECT_THROW(ts.Append(1.0, 0.0), std::invalid_argument);
}

TEST(TimeSeriesTest, AllowsEqualTimes) {
  TimeSeries ts;
  ts.Append(1.0, 0.0);
  EXPECT_NO_THROW(ts.Append(1.0, 1.0));
}

TEST(TimeSeriesTest, ValuesFromFilters) {
  TimeSeries ts;
  ts.Append(0.0, 1.0);
  ts.Append(5.0, 2.0);
  ts.Append(10.0, 3.0);
  const auto vals = ts.ValuesFrom(5.0);
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], 2.0);
}

TEST(TimeSeriesTest, DownsampleReducesPoints) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) {
    ts.Append(static_cast<double>(i), static_cast<double>(i));
  }
  const TimeSeries small = ts.Downsample(10);
  EXPECT_LE(small.size(), 10u);
  EXPECT_GE(small.size(), 5u);
}

TEST(TimeSeriesTest, DownsamplePreservesMeanRoughly) {
  TimeSeries ts;
  for (int i = 0; i < 1000; ++i) {
    ts.Append(static_cast<double>(i), 7.0);
  }
  const TimeSeries small = ts.Downsample(16);
  for (const auto& p : small.points()) {
    EXPECT_NEAR(p.value, 7.0, 1e-9);
  }
}

TEST(TimeSeriesTest, DownsampleNoOpWhenSmall) {
  TimeSeries ts;
  ts.Append(0.0, 1.0);
  EXPECT_EQ(ts.Downsample(10).size(), 1u);
}

TEST(TimeSeriesTest, DownsampleRejectsTinyBudget) {
  TimeSeries ts;
  EXPECT_THROW(ts.Downsample(1), std::invalid_argument);
}

// ------------------------------------------------------------------ table

TEST(TableTest, RequiresHeader) {
  EXPECT_THROW(Table({}), std::invalid_argument);
}

TEST(TableTest, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), std::invalid_argument);
}

TEST(TableTest, PrintsAlignedWithPrefix) {
  Table t({"name", "value"});
  t.AddRow({"x", "1"});
  std::ostringstream os;
  t.Print(os, "[REPRO] ");
  const std::string out = os.str();
  EXPECT_NE(out.find("[REPRO] name"), std::string::npos);
  EXPECT_NE(out.find("[REPRO] x"), std::string::npos);
}

TEST(FormatTest, SignificantDigits) {
  EXPECT_EQ(FormatSig(1.23456, 3), "1.23");
}

TEST(FormatTest, EnergyScalesToFemtojoules) {
  EXPECT_EQ(FormatEnergy(1.0e-17, 3), "0.01 fJ");
  EXPECT_EQ(FormatEnergy(0.58e-15, 3), "0.58 fJ");
  EXPECT_EQ(FormatEnergy(0.16e-9, 3), "0.16 nJ");
}

TEST(FormatTest, DurationScales) {
  EXPECT_EQ(FormatDuration(1.0e-9, 3), "1 ns");
  EXPECT_EQ(FormatDuration(0.02, 3), "20 ms");
}

// ------------------------------------------------------------------ units

TEST(UnitsTest, ConversionsAreConsistent) {
  EXPECT_DOUBLE_EQ(ToMillis(0.02), 20.0);
  EXPECT_DOUBLE_EQ(ToFemtojoules(1e-15), 1.0);
  EXPECT_NEAR(ToNanojoules(1.6e-10), 0.16, 1e-12);
  EXPECT_DOUBLE_EQ(BitsToBytesPerSecond(8.0e6), 1.0e6);
}

TEST(UnitsTest, ThermalVoltageIsRoomTemperature) {
  EXPECT_NEAR(kThermalVoltageV, 0.02585, 1e-4);
}

// Property sweep: percentile is monotone in q for any sample set.
class PercentileMonotone : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PercentileMonotone, MonotoneInQ) {
  RandomStream rng(GetParam());
  std::vector<double> xs;
  for (int i = 0; i < 50; ++i) xs.push_back(rng.NextNormal(0.0, 10.0));
  double prev = PercentileOf(xs, 0.0);
  for (double q = 0.05; q <= 1.0; q += 0.05) {
    const double cur = PercentileOf(xs, q);
    EXPECT_GE(cur, prev - 1e-12);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PercentileMonotone,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));


// ---------------------------------------------------- timeseries reserve

TEST(TimeSeriesTest, ReservePreservesContentsAndAppends) {
  TimeSeries ts("trace");
  ts.Append(0.0, 1.0);
  ts.Reserve(1000);
  EXPECT_EQ(ts.size(), 1u);
  for (int i = 1; i < 100; ++i) ts.Append(0.1 * i, 2.0 * i);
  EXPECT_EQ(ts.size(), 100u);
  EXPECT_EQ(ts[0].value, 1.0);
  EXPECT_EQ(ts[99].value, 198.0);
}

}  // namespace
}  // namespace analognf
