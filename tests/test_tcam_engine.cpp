// Differential tests for the compiled match-action engines: the bitmask
// TCAM engine and the DIR-24-8 LPM engine are checked against naive
// reference scans on randomized tables, including the sharded code path
// and the batched entry points.
#include <gtest/gtest.h>

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "analognf/common/rng.hpp"
#include "analognf/common/simd.hpp"
#include "analognf/tcam/tcam.hpp"
#include "analognf/tcam/tcam_search_engine.hpp"
#include "analognf/tcam/ternary.hpp"

namespace analognf::tcam {
namespace {

// Random ternary pattern derived from a template key: each bit is X with
// probability 1/2, otherwise the template's bit; half the patterns then
// get one specified bit flipped. Probes near the template therefore hit
// a healthy fraction of the entries.
TernaryWord RandomPattern(analognf::RandomStream& rng,
                          const std::string& template_bits) {
  std::string s = template_bits;
  for (char& c : s) {
    if (rng.NextIndex(2) == 0) c = 'X';
  }
  if (rng.NextIndex(2) == 0) {
    const std::size_t pos = rng.NextIndex(s.size());
    if (s[pos] != 'X') s[pos] = s[pos] == '0' ? '1' : '0';
  }
  return TernaryWord::FromString(s);
}

std::string RandomBits(analognf::RandomStream& rng, std::size_t width) {
  std::string s(width, '0');
  for (char& c : s) c = rng.NextIndex(2) == 0 ? '0' : '1';
  return s;
}

// Reference model: the pre-engine rowwise scan over the raw slot array.
std::optional<TcamEngineHit> NaiveSearch(const TcamTable& table,
                                         const BitKey& key) {
  std::optional<TcamEngineHit> best;
  const auto& entries = table.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (!table.IsLive(i)) continue;
    if (!entries[i].pattern.Matches(key)) continue;
    if (!best.has_value() || entries[i].priority > best->priority) {
      best = TcamEngineHit{i, entries[i].action, entries[i].priority};
    }
  }
  return best;
}

void ExpectSameHit(const std::optional<TcamEngineHit>& got,
                   const std::optional<TcamEngineHit>& want,
                   std::size_t probe) {
  ASSERT_EQ(got.has_value(), want.has_value()) << "probe " << probe;
  if (!want.has_value()) return;
  EXPECT_EQ(got->entry_index, want->entry_index) << "probe " << probe;
  EXPECT_EQ(got->action, want->action) << "probe " << probe;
  EXPECT_EQ(got->priority, want->priority) << "probe " << probe;
}

// One search cycle on the table's published snapshot.
std::optional<TcamEngineHit> Search(const TcamTable& table,
                                    const BitKey& key) {
  return table.snapshot()->engine.Search(key);
}

// `keys` against one published snapshot, the way FirewallStage searches.
std::vector<std::optional<TcamEngineHit>> SearchBatch(
    const TcamTable& table, const std::vector<BitKey>& keys) {
  std::vector<std::optional<TcamEngineHit>> out;
  table.snapshot()->engine.SearchBatch(keys.data(), keys.size(), out);
  return out;
}

// One address through the published snapshot, the way RouteStage looks
// up.
std::optional<TcamEngineHit> LookupOne(const LpmTable& lpm,
                                       std::uint32_t address) {
  std::vector<std::optional<TcamEngineHit>> out;
  lpm.snapshot()->engine.LookupBatch(&address, 1, out);
  return out[0];
}

// ---------------------------------------------------- randomized differential

class EngineDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineDifferential, MatchesNaiveScanOnRandomTables) {
  analognf::RandomStream rng(GetParam());
  // 104 bits = the firewall key width: two full lanes plus a partial one,
  // so lane boundaries and the tail lane are all exercised.
  const std::size_t width = 104;
  TcamTable table(width, TcamTechnology::MemristorTcam());
  const std::string base = RandomBits(rng, width);
  for (std::size_t i = 0; i < 130; ++i) {  // >2 banks of 64 slots
    TcamTable::Entry entry;
    entry.pattern = RandomPattern(rng, base);
    entry.action = static_cast<std::uint32_t>(i);
    // Priorities from a small set so ties are common and the
    // lowest-index resolution rule is actually exercised.
    entry.priority = static_cast<std::int32_t>(rng.NextIndex(4));
    table.Insert(std::move(entry));
  }
  table.Commit();
  std::size_t hits = 0;
  for (std::size_t probe = 0; probe < 2500; ++probe) {
    // Mix near-template probes (likely hits) with uniform ones.
    std::string bits = probe % 2 == 0 ? base : RandomBits(rng, width);
    if (probe % 2 == 0) {
      for (std::size_t flips = rng.NextIndex(6); flips > 0; --flips) {
        const std::size_t pos = rng.NextIndex(width);
        bits[pos] = bits[pos] == '0' ? '1' : '0';
      }
    }
    const BitKey key = BitKey::FromString(bits);
    const auto want = NaiveSearch(table, key);
    ExpectSameHit(Search(table, key), want, probe);
    if (want.has_value()) ++hits;
  }
  EXPECT_GT(hits, 100u);  // the workload must actually exercise hits
}

TEST_P(EngineDifferential, SurvivesEraseAndReinsert) {
  analognf::RandomStream rng(GetParam() + 1000);
  const std::size_t width = 16;
  TcamTable table(width, TcamTechnology::MemristorTcam());
  const std::string base = RandomBits(rng, width);
  for (std::size_t i = 0; i < 40; ++i) {
    table.Insert({RandomPattern(rng, base), static_cast<std::uint32_t>(i),
                  static_cast<std::int32_t>(rng.NextIndex(3))});
  }
  for (std::size_t round = 0; round < 30; ++round) {
    // Random mutation: erase a random live slot or insert a fresh entry.
    if (rng.NextIndex(2) == 0 && table.size() > 1) {
      std::size_t idx = rng.NextIndex(table.slot_count());
      while (!table.IsLive(idx)) idx = rng.NextIndex(table.slot_count());
      table.Erase(idx);  // poisons the compiled slot in place
    } else {
      table.Insert({RandomPattern(rng, base),
                    static_cast<std::uint32_t>(1000 + round),
                    static_cast<std::int32_t>(rng.NextIndex(3))});
    }
    table.Commit();  // publish the mutation before searching
    for (std::size_t probe = 0; probe < 40; ++probe) {
      const BitKey key = BitKey::FromString(RandomBits(rng, width));
      ExpectSameHit(Search(table, key), NaiveSearch(table, key), probe);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineDifferential,
                         ::testing::Values(7, 19, 41, 97));

// ------------------------------------------------- match-tier differential
// The pruned tier (chunk-bitmap intersection + candidate verify) must be
// bit-identical to the linear tier on the same row set, winner for
// winner. Tables below are built twice from identical entries: once with
// the classifier pinned off, once with the default config.

TcamSearchConfig LinearPinned() {
  TcamSearchConfig config;
  config.classifier.min_slots = std::numeric_limits<std::size_t>::max();
  return config;
}

TcamMatchTier TierOf(const TcamTable& table) {
  return table.snapshot()->engine.tier();
}

class TierDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TierDifferential, PrunedWinnersMatchLinearOnRandomTables) {
  analognf::RandomStream rng(GetParam());
  const std::size_t width = 104;
  TcamTable linear(width, TcamTechnology::MemristorTcam(), LinearPinned());
  TcamTable pruned(width, TcamTechnology::MemristorTcam());
  const std::string base = RandomBits(rng, width);
  for (std::size_t i = 0; i < 160; ++i) {
    // Overlapping priorities from a tiny set: ties are the norm, so the
    // lowest-index rule is load-bearing in both tiers.
    TcamTable::Entry entry{RandomPattern(rng, base),
                           static_cast<std::uint32_t>(i),
                           static_cast<std::int32_t>(rng.NextIndex(3))};
    linear.Insert(entry);
    pruned.Insert(std::move(entry));
  }
  linear.Commit();
  pruned.Commit();
  ASSERT_EQ(TierOf(linear), TcamMatchTier::kLinear);
  ASSERT_EQ(TierOf(pruned), TcamMatchTier::kPruned);

  std::vector<BitKey> keys;
  for (std::size_t probe = 0; probe < 1500; ++probe) {
    std::string bits = probe % 2 == 0 ? base : RandomBits(rng, width);
    if (probe % 2 == 0) {
      for (std::size_t flips = rng.NextIndex(8); flips > 0; --flips) {
        const std::size_t pos = rng.NextIndex(width);
        bits[pos] = bits[pos] == '0' ? '1' : '0';
      }
    }
    keys.push_back(BitKey::FromString(bits));
  }
  for (std::size_t probe = 0; probe < keys.size(); ++probe) {
    ExpectSameHit(Search(pruned, keys[probe]), Search(linear, keys[probe]),
                  probe);
  }
  // The batched entry point runs the same pruned kernel per shard.
  const auto got = SearchBatch(pruned, keys);
  const auto want = SearchBatch(linear, keys);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t probe = 0; probe < keys.size(); ++probe) {
    ExpectSameHit(got[probe], want[probe], probe);
  }
}

TEST_P(TierDifferential, HeavyWildcardTablesStayExact) {
  // ~90% X per bit drives the chunk bitmaps toward all-ones; whatever
  // tier the density heuristic picks, winners must match the naive scan.
  analognf::RandomStream rng(GetParam() + 3000);
  const std::size_t width = 104;
  TcamTable table(width, TcamTechnology::MemristorTcam());
  for (std::size_t i = 0; i < 120; ++i) {
    std::string s(width, 'X');
    for (char& c : s) {
      if (rng.NextIndex(10) == 0) c = rng.NextIndex(2) == 0 ? '0' : '1';
    }
    table.Insert({TernaryWord::FromString(s), static_cast<std::uint32_t>(i),
                  static_cast<std::int32_t>(rng.NextIndex(4))});
  }
  table.Commit();
  for (std::size_t probe = 0; probe < 600; ++probe) {
    const BitKey key = BitKey::FromString(RandomBits(rng, width));
    ExpectSameHit(Search(table, key), NaiveSearch(table, key), probe);
  }
}

TEST_P(TierDifferential, TombstoneChurnKeepsTiersIdentical) {
  analognf::RandomStream rng(GetParam() + 4000);
  const std::size_t width = 104;
  TcamTable linear(width, TcamTechnology::MemristorTcam(), LinearPinned());
  TcamTable pruned(width, TcamTechnology::MemristorTcam());
  const std::string base = RandomBits(rng, width);
  for (std::size_t i = 0; i < 140; ++i) {
    TcamTable::Entry entry{RandomPattern(rng, base),
                           static_cast<std::uint32_t>(i),
                           static_cast<std::int32_t>(rng.NextIndex(3))};
    linear.Insert(entry);
    pruned.Insert(std::move(entry));
  }
  linear.Commit();
  pruned.Commit();
  for (std::size_t round = 0; round < 25; ++round) {
    // Mirror the same mutation into both tables so slot layouts stay
    // identical (compaction included — it is deterministic in the slot
    // state).
    if (rng.NextIndex(2) == 0 && pruned.size() > 1) {
      std::size_t idx = rng.NextIndex(pruned.slot_count());
      while (!pruned.IsLive(idx)) idx = rng.NextIndex(pruned.slot_count());
      linear.Erase(idx);
      pruned.Erase(idx);
    } else {
      TcamTable::Entry entry{RandomPattern(rng, base),
                             static_cast<std::uint32_t>(1000 + round),
                             static_cast<std::int32_t>(rng.NextIndex(3))};
      linear.Insert(entry);
      pruned.Insert(std::move(entry));
    }
    linear.Commit();
    pruned.Commit();
    ASSERT_EQ(linear.slot_count(), pruned.slot_count()) << "round " << round;
    for (std::size_t probe = 0; probe < 40; ++probe) {
      const BitKey key = BitKey::FromString(RandomBits(rng, width));
      const auto want = Search(linear, key);
      ExpectSameHit(Search(pruned, key), want, probe);
      ExpectSameHit(want, NaiveSearch(pruned, key), probe);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TierDifferential,
                         ::testing::Values(11, 23, 59, 83));

TEST(TcamMatchTierTest, TinyTablesFallBackToLinear) {
  // A single rule is far below classifier.min_slots: the compiler must
  // choose the linear tier and still match exactly.
  TcamTable table(16, TcamTechnology::MemristorTcam());
  table.Insert({TernaryWord::FromString("1010XXXXXXXX0000"), 7, 3});
  table.Commit();
  EXPECT_EQ(TierOf(table), TcamMatchTier::kLinear);
  const auto hit = Search(table, BitKey::FromString("1010111100000000"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->action, 7u);
  EXPECT_FALSE(Search(table, BitKey::FromString("0010111100000000")));
}

TEST(TcamMatchTierTest, AllWildcardRulesFallBackToLinear) {
  // Every chunk bitmap would be all-ones (density 1.0): the compiler
  // must reject pruning, and the highest-priority lowest-index rule
  // must win for every key.
  analognf::RandomStream rng(5);
  const std::size_t width = 104;
  TcamTable table(width, TcamTechnology::MemristorTcam());
  for (std::size_t i = 0; i < 64; ++i) {
    table.Insert({TernaryWord::FromString(std::string(width, 'X')),
                  static_cast<std::uint32_t>(i),
                  static_cast<std::int32_t>(i % 4)});
  }
  table.Commit();
  EXPECT_EQ(TierOf(table), TcamMatchTier::kLinear);
  for (std::size_t probe = 0; probe < 50; ++probe) {
    const auto hit = Search(table, BitKey::FromString(RandomBits(rng, width)));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->entry_index, 3u);  // priority 3 first occurs at index 3
    EXPECT_EQ(hit->priority, 3);
  }
}

TEST(TcamMatchTierTest, LargeSpecificTablesCompileToPruned) {
  // ACL-style mostly-specific rules over min_slots rows: the density
  // heuristic must engage the pruned tier and report its expectation.
  analognf::RandomStream rng(6);
  const std::size_t width = 104;
  TcamTable table(width, TcamTechnology::MemristorTcam());
  const std::string base = RandomBits(rng, width);
  for (std::size_t i = 0; i < 128; ++i) {
    table.Insert({RandomPattern(rng, base), static_cast<std::uint32_t>(i),
                  static_cast<std::int32_t>(rng.NextIndex(4))});
  }
  table.Commit();
  ASSERT_EQ(TierOf(table), TcamMatchTier::kPruned);
  const double density = table.snapshot()->engine.expected_prune_density();
  EXPECT_GT(density, 0.0);
  EXPECT_LT(density, 0.5);  // the compile-time acceptance threshold
}

// ------------------------------------------------------------ SearchBatch

TEST(TcamSearchBatchTest, BitIdenticalToSequentialSearches) {
  analognf::RandomStream rng(123);
  const std::size_t width = 32;
  TcamTable table(width, TcamTechnology::MemristorTcam());
  const std::string base = RandomBits(rng, width);
  for (std::size_t i = 0; i < 64; ++i) {
    table.Insert({RandomPattern(rng, base), static_cast<std::uint32_t>(i),
                  static_cast<std::int32_t>(rng.NextIndex(4))});
  }
  table.Commit();
  std::vector<BitKey> keys;
  for (std::size_t probe = 0; probe < 300; ++probe) {
    keys.push_back(BitKey::FromString(RandomBits(rng, width)));
  }
  const auto out = SearchBatch(table, keys);
  ASSERT_EQ(out.size(), keys.size());
  for (std::size_t probe = 0; probe < keys.size(); ++probe) {
    ExpectSameHit(out[probe], Search(table, keys[probe]), probe);
  }
}

// ------------------------------------------------- bank kernels

// The AVX2 bank kernel compares only the first n slots and returns the
// scalar kernel's word bit for bit, whatever lies beyond n (garbage that
// would match if scanned). Skipped where the AVX2 kernel is unavailable.
TEST(BankMatchWordTest, Avx2MatchesScalarForEveryLiveSlotCount) {
#ifdef ANALOGNF_SIMD_AVX2
  if (!simd::UseAvx2()) GTEST_SKIP() << "AVX2 kernels disabled";
  analognf::Xoshiro256 gen(77);
  std::uint64_t mask[64];
  std::uint64_t value[64];
  for (std::size_t n = 1; n <= 64; ++n) {
    for (int round = 0; round < 16; ++round) {
      const std::uint64_t key = gen.Next();
      for (std::size_t s = 0; s < 64; ++s) {
        if (s >= n) {  // garbage that matches any key
          mask[s] = 0;
          value[s] = 0;
          continue;
        }
        mask[s] = gen.Next();
        // Half the live slots match the key, the rest differ in one bit.
        value[s] = key & mask[s];
        if ((gen.Next() & 1) == 0) value[s] ^= std::uint64_t{1} << s;
      }
      const std::uint64_t scalar =
          simd::BankMatchWordScalar(key, mask, value, n);
      EXPECT_EQ(simd::BankMatchWordAvx2(key, mask, value, n), scalar)
          << "n=" << n;
      EXPECT_EQ(scalar & ~simd::LowSlotsMask(n), 0u) << "n=" << n;
    }
  }
#else
  GTEST_SKIP() << "built without AVX2 kernels";
#endif
}

// The linear tier scans only each bank's live slots. Tables of 1, 3, 63,
// 65 and 129 rules (partial first, last and tail banks), with erased core
// slots and an appended tail from a delta commit: SearchBatch equals
// per-key Search, and both equal a brute-force priority scan.
TEST(TcamLinearTierTest, PartialBanksMatchBruteForce) {
  for (const std::size_t rules : {1u, 3u, 63u, 65u, 129u}) {
    SCOPED_TRACE(rules);
    analognf::RandomStream rng(1000 + rules);
    const std::size_t width = 104;
    TcamSearchConfig config = LinearPinned();
    config.delta_policy.min_rows = 0;
    config.delta_policy.max_delta_fraction = 4.0;
    TcamTable table(width, TcamTechnology::MemristorTcam(), config);
    const std::string base = RandomBits(rng, width);
    auto insert = [&](std::uint32_t action) {
      table.Insert({RandomPattern(rng, base), action,
                    static_cast<std::int32_t>(rng.NextIndex(4))});
    };
    for (std::size_t i = 0; i < rules; ++i) {
      insert(static_cast<std::uint32_t>(i));
    }
    table.Commit();
    for (std::size_t i = 1; i < rules; i += 3) table.Erase(i);
    insert(1000);
    insert(1001);
    table.Commit();
    ASSERT_EQ(TierOf(table), TcamMatchTier::kLinear);
    ASSERT_GT(table.snapshot()->engine.tail_slots(), 0u);

    std::vector<BitKey> keys;
    for (std::size_t probe = 0; probe < 400; ++probe) {
      std::string bits = probe % 2 == 0 ? base : RandomBits(rng, width);
      if (probe % 2 == 0) {
        for (std::size_t flips = rng.NextIndex(4); flips > 0; --flips) {
          const std::size_t pos = rng.NextIndex(width);
          bits[pos] = bits[pos] == '0' ? '1' : '0';
        }
      }
      keys.push_back(BitKey::FromString(bits));
    }
    const auto batched = SearchBatch(table, keys);
    ASSERT_EQ(batched.size(), keys.size());
    std::size_t hits = 0;
    for (std::size_t probe = 0; probe < keys.size(); ++probe) {
      const auto want = NaiveSearch(table, keys[probe]);
      ExpectSameHit(Search(table, keys[probe]), want, probe);
      ExpectSameHit(batched[probe], want, probe);
      if (want.has_value()) ++hits;
    }
    EXPECT_GT(hits, 0u);
  }
}

TEST(TcamSearchBatchTest, EmptyBatchIsANoOp) {
  TcamTable t(8, TcamTechnology::MemristorTcam());
  t.Insert({TernaryWord::FromString("1XXXXXXX"), 1, 0});
  t.Commit();
  std::vector<std::optional<TcamEngineHit>> out(3);
  t.snapshot()->engine.SearchBatch(nullptr, 0, out);
  EXPECT_TRUE(out.empty());
}

// ------------------------------------------------------------ LPM engine

class LpmEngineDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmEngineDifferential, MatchesNaiveLongestPrefix) {
  analognf::RandomStream rng(GetParam());
  std::vector<LpmFlatEngine::Route> routes;
  for (std::size_t i = 0; i < 64; ++i) {
    LpmFlatEngine::Route r;
    r.value = static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
    r.prefix_len = static_cast<int>(rng.NextIndex(33));  // 0..32
    r.action = static_cast<std::uint32_t>(i);
    r.entry_index = i;
    routes.push_back(r);
  }
  // Duplicate (value, len) pair: the lower entry index must win, the
  // TCAM priority-encoder rule.
  LpmFlatEngine::Route dup = routes[5];
  dup.action = 999;
  dup.entry_index = 64;
  routes.push_back(dup);
  LpmFlatEngine engine;
  engine.Compile(routes);

  for (std::size_t probe = 0; probe < 4000; ++probe) {
    // Half the probes are perturbed route values, so deep prefixes hit.
    std::uint32_t addr =
        static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
    if (probe % 2 == 0) {
      addr = routes[rng.NextIndex(routes.size())].value ^
             static_cast<std::uint32_t>(rng.NextIndex(256));
    }
    const LpmFlatEngine::Route* want = nullptr;
    for (const auto& r : routes) {
      const int shift = 32 - r.prefix_len;
      const bool matches =
          r.prefix_len == 0 || (addr >> shift) == (r.value >> shift);
      if (!matches) continue;
      if (want == nullptr || r.prefix_len > want->prefix_len ||
          (r.prefix_len == want->prefix_len &&
           r.entry_index < want->entry_index)) {
        want = &r;
      }
    }
    std::vector<std::optional<TcamEngineHit>> hits;
    engine.LookupBatch(&addr, 1, hits);
    const std::optional<TcamEngineHit>& got = hits[0];
    ASSERT_EQ(got.has_value(), want != nullptr) << "probe " << probe;
    if (want == nullptr) continue;
    EXPECT_EQ(got->entry_index, want->entry_index) << "probe " << probe;
    EXPECT_EQ(got->action, want->action) << "probe " << probe;
    EXPECT_EQ(got->priority, want->prefix_len) << "probe " << probe;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmEngineDifferential,
                         ::testing::Values(3, 13, 29, 71));

TEST(LpmEngineTest, RejectsBadPrefixLength) {
  LpmFlatEngine engine;
  LpmFlatEngine::Route r;
  r.prefix_len = 33;
  EXPECT_THROW(engine.Compile({r}), std::invalid_argument);
  r.prefix_len = -1;
  EXPECT_THROW(engine.Compile({r}), std::invalid_argument);
}

TEST(LpmTableTest, LookupBatchBitIdenticalToSequential) {
  analognf::RandomStream rng(55);
  LpmTable lpm(TcamTechnology::MemristorTcam());
  for (std::size_t i = 0; i < 32; ++i) {
    const auto value =
        static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
    const int len = static_cast<int>(rng.NextIndex(25));
    lpm.AddRoute(value, len, static_cast<std::uint32_t>(i));
  }
  lpm.Commit();
  std::vector<std::uint32_t> addrs;
  for (std::size_t probe = 0; probe < 500; ++probe) {
    addrs.push_back(
        static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL)));
  }
  std::vector<std::optional<TcamEngineHit>> out;
  lpm.snapshot()->engine.LookupBatch(addrs.data(), addrs.size(), out);
  ASSERT_EQ(out.size(), addrs.size());
  for (std::size_t probe = 0; probe < addrs.size(); ++probe) {
    ExpectSameHit(out[probe], LookupOne(lpm, addrs[probe]), probe);
  }
}

// -------------------------------------- delta-commit churn differential

// Randomized churn across many Commit() rounds: a delta-enabled table
// must stay bit-identical to the naive scan of its authoritative rows
// (the from-scratch semantics) and agree with a mirrored reference
// table pinned to DeltaCommitPolicy::Disabled() on every probe.
class DeltaCommitDifferential
    : public ::testing::TestWithParam<std::uint64_t> {};

namespace delta_test {

TcamSearchConfig DeltaFriendly() {
  TcamSearchConfig config;
  // Small tables + a permissive overlay budget, so a ~100-row test
  // table takes the patch path for small staged sets and still falls
  // back to full recompiles when the overlay accumulates.
  config.delta_policy.min_rows = 32;
  config.delta_policy.max_delta_fraction = 0.5;
  return config;
}

TcamSearchConfig DeltaDisabled() {
  TcamSearchConfig config;
  config.delta_policy = DeltaCommitPolicy::Disabled();
  return config;
}

// The delta table keeps erased slots in its overlay while the full
// recompile compacts them, so slot layouts legitimately diverge; rules
// are therefore identified by their unique action, not their slot.
std::size_t IndexOfAction(const TcamTable& table, std::uint32_t action) {
  const auto& entries = table.entries();
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (table.IsLive(i) && entries[i].action == action) return i;
  }
  ADD_FAILURE() << "action " << action << " not live";
  return 0;
}

}  // namespace delta_test

TEST_P(DeltaCommitDifferential, TcamChurnMatchesFullRecompile) {
  analognf::RandomStream rng(GetParam());
  const std::size_t width = 104;
  TcamTable delta(width, TcamTechnology::MemristorTcam(),
                  delta_test::DeltaFriendly());
  TcamTable full(width, TcamTechnology::MemristorTcam(),
                 delta_test::DeltaDisabled());
  const std::string base = RandomBits(rng, width);
  std::vector<std::uint32_t> live_actions;
  std::uint32_t next_action = 0;
  auto insert_both = [&] {
    TcamTable::Entry entry{RandomPattern(rng, base), next_action,
                           static_cast<std::int32_t>(rng.NextIndex(4))};
    delta.Insert(entry);
    full.Insert(std::move(entry));
    live_actions.push_back(next_action++);
  };
  for (std::size_t i = 0; i < 96; ++i) insert_both();
  delta.Commit();
  full.Commit();

  for (std::size_t round = 0; round < 80; ++round) {
    const std::size_t ops = 1 + rng.NextIndex(3);
    for (std::size_t op = 0; op < ops; ++op) {
      if (rng.NextIndex(3) == 0 && live_actions.size() > 8) {
        const std::size_t pick = rng.NextIndex(live_actions.size());
        const std::uint32_t action = live_actions[pick];
        live_actions.erase(live_actions.begin() +
                           static_cast<long>(pick));
        delta.Erase(delta_test::IndexOfAction(delta, action));
        full.Erase(delta_test::IndexOfAction(full, action));
      } else {
        insert_both();
      }
    }
    delta.Commit();
    full.Commit();
    std::vector<BitKey> keys;
    for (std::size_t probe = 0; probe < 25; ++probe) {
      std::string bits = probe % 2 == 0 ? base : RandomBits(rng, width);
      if (probe % 2 == 0) {
        for (std::size_t flips = rng.NextIndex(6); flips > 0; --flips) {
          const std::size_t pos = rng.NextIndex(width);
          bits[pos] = bits[pos] == '0' ? '1' : '0';
        }
      }
      keys.push_back(BitKey::FromString(bits));
    }
    const auto batched = SearchBatch(delta, keys);
    for (std::size_t probe = 0; probe < keys.size(); ++probe) {
      const auto got = Search(delta, keys[probe]);
      // From-scratch semantics: the naive scan of the slot array.
      ExpectSameHit(got, NaiveSearch(delta, keys[probe]), probe);
      ExpectSameHit(batched[probe], got, probe);
      // Cross-check the winning rule against the always-recompiled
      // reference (slot indices may differ; the rule must not).
      const auto want = Search(full, keys[probe]);
      ASSERT_EQ(got.has_value(), want.has_value()) << "probe " << probe;
      if (got.has_value()) {
        EXPECT_EQ(got->action, want->action) << "probe " << probe;
        EXPECT_EQ(got->priority, want->priority) << "probe " << probe;
      }
    }
  }
  // The churn must actually exercise both commit paths.
  EXPECT_GT(delta.commit_stats().delta_commits, 0u);
  EXPECT_GT(delta.commit_stats().full_recompiles, 0u);
  EXPECT_EQ(full.commit_stats().delta_commits, 0u);
}

TEST_P(DeltaCommitDifferential, LpmChurnMatchesFullRecompileAndNaiveScan) {
  analognf::RandomStream rng(GetParam() + 500);
  LpmConfig delta_cfg;
  delta_cfg.delta_policy.min_rows = 32;
  delta_cfg.delta_policy.max_delta_fraction = 0.5;
  LpmConfig full_cfg = delta_cfg;
  full_cfg.delta_policy = DeltaCommitPolicy::Disabled();

  LpmTable delta(TcamTechnology::MemristorTcam(), delta_cfg);
  LpmTable full(TcamTechnology::MemristorTcam(), full_cfg);

  // Both tables see the identical mutation sequence, so AddRoute
  // returns identical indices and hits stay slot-comparable.
  struct RouteKey {
    std::uint32_t value;
    int len;
  };
  std::vector<RouteKey> inserted;
  // The live route set and the hit each route answers with, for the
  // naive longest-prefix scan.
  struct LiveRoute {
    RouteKey key;
    TcamEngineHit hit;
  };
  std::vector<LiveRoute> live;
  std::uint32_t next_action = 0;
  auto add = [&](std::uint32_t value, int len) {
    const std::size_t index = delta.AddRoute(value, len, next_action);
    EXPECT_EQ(full.AddRoute(value, len, next_action), index);
    LiveRoute route{{value, len}, {}};
    route.hit.entry_index = index;
    route.hit.action = next_action;
    route.hit.priority = len;
    live.push_back(route);
    ++next_action;
    inserted.push_back({value, len});
  };
  auto add_random = [&] {
    const auto value =
        static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
    // Half the routes are /25../32 so the tbl8 extension pages see
    // constant churn; the rest spread over /1../24. An occasional
    // duplicate (value, len) exercises the lowest-index rule.
    if (!inserted.empty() && rng.NextIndex(8) == 0) {
      const RouteKey dup = inserted[rng.NextIndex(inserted.size())];
      add(dup.value, dup.len);
    } else if (rng.NextIndex(2) == 0) {
      add(value, static_cast<int>(25 + rng.NextIndex(8)));
    } else {
      add(value, static_cast<int>(1 + rng.NextIndex(24)));
    }
  };
  // From-scratch semantics: the longest live prefix matching `addr`,
  // ties to the lowest index.
  auto naive = [&](std::uint32_t addr) {
    std::optional<TcamEngineHit> want;
    for (const LiveRoute& r : live) {
      const int shift = 32 - r.key.len;  // len >= 1: no shift by 32
      if ((addr >> shift) != (r.key.value >> shift)) continue;
      if (!want.has_value() || r.hit.priority > want->priority ||
          (r.hit.priority == want->priority &&
           r.hit.entry_index < want->entry_index)) {
        want = r.hit;
      }
    }
    return want;
  };
  for (std::size_t i = 0; i < 96; ++i) add_random();
  delta.Commit();
  full.Commit();

  std::vector<std::uint32_t> addrs;
  std::vector<std::optional<TcamEngineHit>> batched;
  for (std::size_t round = 0; round < 60; ++round) {
    const std::size_t ops = 1 + rng.NextIndex(3);
    for (std::size_t op = 0; op < ops; ++op) {
      // Withdrawals uncover shallower routes (the engine must repaint
      // from the surviving cover); keep the table above the delta
      // policy's min_rows so delta commits keep happening.
      if (rng.NextIndex(3) == 0 && live.size() > 48) {
        const std::size_t pick = rng.NextIndex(live.size());
        const std::size_t index = live[pick].hit.entry_index;
        live.erase(live.begin() + static_cast<long>(pick));
        delta.WithdrawRoute(index);
        full.WithdrawRoute(index);
      } else {
        add_random();
      }
    }
    delta.Commit();
    full.Commit();
    addrs.clear();
    for (std::size_t probe = 0; probe < 40; ++probe) {
      // Perturbed route values hit deep prefixes; the rest are uniform.
      std::uint32_t addr =
          static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
      if (probe % 2 == 0) {
        addr = inserted[rng.NextIndex(inserted.size())].value ^
               static_cast<std::uint32_t>(rng.NextIndex(256));
      }
      addrs.push_back(addr);
    }
    delta.snapshot()->engine.LookupBatch(addrs.data(), addrs.size(), batched);
    for (std::size_t probe = 0; probe < addrs.size(); ++probe) {
      const auto got = LookupOne(delta, addrs[probe]);
      ExpectSameHit(got, LookupOne(full, addrs[probe]), probe);
      ExpectSameHit(got, naive(addrs[probe]), probe);
      ExpectSameHit(batched[probe], got, probe);
    }
  }
  EXPECT_GT(delta.commit_stats().delta_commits, 0u);
  EXPECT_EQ(full.commit_stats().delta_commits, 0u);
  EXPECT_EQ(full.commit_stats().full_recompiles,
            full.commit_stats().commits);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeltaCommitDifferential,
                         ::testing::Values(17, 37, 61, 89));

}  // namespace
}  // namespace analognf::tcam
