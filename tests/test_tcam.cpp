// Tests for the digital TCAM baseline: ternary logic, search semantics,
// LPM, and the energy/latency cost model.
#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>
#include <vector>

#include "alloc_probe.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/tcam/tcam.hpp"
#include "analognf/tcam/ternary.hpp"

namespace analognf::tcam {
namespace {

// ------------------------------------------------------------- BitKey

TEST(BitKeyTest, AppendersAreMsbFirst) {
  BitKey key;
  key.AppendU8(0xA5);
  EXPECT_EQ(key.ToString(), "10100101");
  key.AppendBit(true);
  EXPECT_EQ(key.width(), 9u);
  EXPECT_TRUE(key.bit(8));
}

TEST(BitKeyTest, U16AndU32Widths) {
  BitKey key;
  key.AppendU16(0xFFFF);
  key.AppendU32(0);
  EXPECT_EQ(key.width(), 48u);
}

TEST(BitKeyTest, FromStringRoundTrips) {
  const BitKey key = BitKey::FromString("1010011");
  EXPECT_EQ(key.ToString(), "1010011");
  EXPECT_THROW(BitKey::FromString("10X"), std::invalid_argument);
}

// -------------------------------------------------------- TernaryWord

TEST(TernaryWordTest, FromStringAcceptsWildcards) {
  const TernaryWord w = TernaryWord::FromString("10Xx*");
  EXPECT_EQ(w.width(), 5u);
  EXPECT_EQ(w.ToString(), "10XXX");
  EXPECT_EQ(w.SpecifiedBits(), 2u);
  EXPECT_THROW(TernaryWord::FromString("102"), std::invalid_argument);
}

TEST(TernaryWordTest, ExactMatchSemantics) {
  const TernaryWord w = TernaryWord::FromString("10X");
  EXPECT_TRUE(w.Matches(BitKey::FromString("100")));
  EXPECT_TRUE(w.Matches(BitKey::FromString("101")));
  EXPECT_FALSE(w.Matches(BitKey::FromString("110")));
}

TEST(TernaryWordTest, HammingDistanceCountsSpecifiedOnly) {
  const TernaryWord w = TernaryWord::FromString("1X0X");
  EXPECT_EQ(w.HammingDistance(BitKey::FromString("1000")), 0u);
  EXPECT_EQ(w.HammingDistance(BitKey::FromString("0011")), 2u);
  EXPECT_EQ(w.HammingDistance(BitKey::FromString("1110")), 1u);
}

TEST(TernaryWordTest, WidthMismatchThrows) {
  const TernaryWord w = TernaryWord::FromString("101");
  EXPECT_THROW(w.Matches(BitKey::FromString("10")), std::invalid_argument);
}

TEST(TernaryWordTest, PrefixEncoding) {
  const TernaryWord w = TernaryWord::FromPrefix(0xC0000000, 2);  // 192.0.0.0/2
  EXPECT_EQ(w.ToString().substr(0, 2), "11");
  EXPECT_EQ(w.SpecifiedBits(), 2u);
  EXPECT_THROW(TernaryWord::FromPrefix(0, 33), std::invalid_argument);
}

TEST(TernaryWordTest, AppendConcatenates) {
  TernaryWord w = TernaryWord::FromString("11");
  w.Append(TernaryWord::FromString("XX"));
  EXPECT_EQ(w.ToString(), "11XX");
}

// ---------------------------------------------------------- TcamTable

// One search cycle on the published snapshot, the way FirewallStage
// searches.
std::optional<TcamEngineHit> Search(const TcamTable& t, const BitKey& key) {
  return t.snapshot()->engine.Search(key);
}

// One address through the published snapshot, the way RouteStage looks
// up.
std::optional<TcamEngineHit> LookupOne(const LpmTable& lpm,
                                       std::uint32_t address) {
  std::vector<std::optional<TcamEngineHit>> out;
  lpm.snapshot()->engine.LookupBatch(&address, 1, out);
  return out[0];
}

TEST(TcamTechnologyTest, PresetsValidate) {
  EXPECT_NO_THROW(TcamTechnology::TransistorCmos().Validate());
  EXPECT_NO_THROW(TcamTechnology::MemristorTcam().Validate());
  TcamTechnology bad = TcamTechnology::TransistorCmos();
  bad.data_movement_fraction = 1.5;
  EXPECT_THROW(bad.Validate(), std::invalid_argument);
}

TEST(TcamTableTest, RejectsZeroWidth) {
  EXPECT_THROW(TcamTable(0, TcamTechnology::TransistorCmos()),
               std::invalid_argument);
}

TEST(TcamTableTest, InsertRejectsWidthMismatch) {
  TcamTable t(4, TcamTechnology::TransistorCmos());
  TcamTable::Entry e;
  e.pattern = TernaryWord::FromString("101");
  EXPECT_THROW(t.Insert(std::move(e)), std::invalid_argument);
}

TEST(TcamTableTest, SearchFindsMatch) {
  TcamTable t(4, TcamTechnology::TransistorCmos());
  t.Insert({TernaryWord::FromString("10XX"), 7, 0});
  t.Commit();
  const auto result = Search(t, BitKey::FromString("1011"));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->action, 7u);
  EXPECT_EQ(result->entry_index, 0u);
}

TEST(TcamTableTest, MissReturnsNullopt) {
  TcamTable t(4, TcamTechnology::TransistorCmos());
  t.Insert({TernaryWord::FromString("1111"), 1, 0});
  t.Commit();
  EXPECT_FALSE(Search(t, BitKey::FromString("0000")).has_value());
  // The miss still costs the whole array's search cycle.
  EXPECT_GT(t.snapshot()->search_energy_j, 0.0);
}

TEST(TcamTableTest, HighestPriorityWins) {
  TcamTable t(4, TcamTechnology::TransistorCmos());
  t.Insert({TernaryWord::FromString("XXXX"), 1, 0});
  t.Insert({TernaryWord::FromString("10XX"), 2, 10});
  t.Commit();
  const auto result = Search(t, BitKey::FromString("1010"));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->action, 2u);
}

TEST(TcamTableTest, TiesResolveToLowestIndex) {
  TcamTable t(2, TcamTechnology::TransistorCmos());
  t.Insert({TernaryWord::FromString("1X"), 100, 5});
  t.Insert({TernaryWord::FromString("X1"), 200, 5});
  t.Commit();
  const auto result = Search(t, BitKey::FromString("11"));
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->entry_index, 0u);
}

TEST(TcamTableTest, EraseTombstonesWithoutShifting) {
  TcamTable t(2, TcamTechnology::TransistorCmos());
  const std::size_t first = t.Insert({TernaryWord::FromString("00"), 1, 0});
  const std::size_t second = t.Insert({TernaryWord::FromString("11"), 2, 0});
  EXPECT_EQ(first, 0u);
  EXPECT_EQ(second, 1u);

  t.Erase(first);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.slot_count(), 2u);  // the slot stays; it just stops matching
  EXPECT_FALSE(t.IsLive(first));
  EXPECT_TRUE(t.IsLive(second));
  t.Commit();
  EXPECT_FALSE(Search(t, BitKey::FromString("00")).has_value());

  // The surviving entry keeps its index: no shift on erase.
  const auto hit = Search(t, BitKey::FromString("11"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry_index, second);

  EXPECT_THROW(t.Erase(9), std::out_of_range);        // bad index
  EXPECT_THROW(t.Erase(first), std::invalid_argument);  // already dead
}

TEST(TcamTableTest, InsertReusesTombstonedSlot) {
  TcamTable t(2, TcamTechnology::TransistorCmos());
  const std::size_t first = t.Insert({TernaryWord::FromString("00"), 1, 0});
  t.Insert({TernaryWord::FromString("11"), 2, 0});
  t.Erase(first);
  const std::size_t reused = t.Insert({TernaryWord::FromString("01"), 3, 0});
  EXPECT_EQ(reused, first);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.slot_count(), 2u);
  t.Commit();
  const auto hit = Search(t, BitKey::FromString("01"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->action, 3u);
  EXPECT_EQ(hit->entry_index, first);
}

TEST(TcamTableTest, CommitCompactsTrailingTombstones) {
  TcamTable t(2, TcamTechnology::MemristorTcam());
  for (int i = 0; i < 8; ++i) {
    t.Insert({TernaryWord::FromString(i % 2 == 0 ? "00" : "11"),
              static_cast<std::uint32_t>(i), 0});
  }
  for (std::size_t i = 4; i < 8; ++i) t.Erase(i);
  // Dead fraction 1/2 > 1/4 and every tombstone is trailing: Commit
  // drops the slots outright. No live index moves.
  t.Commit();
  EXPECT_EQ(t.slot_count(), 4u);
  EXPECT_EQ(t.size(), 4u);
  const auto hit = Search(t, BitKey::FromString("11"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry_index, 1u);
  EXPECT_THROW(t.Erase(5), std::out_of_range);  // the slot is gone
  // Trimmed slots left the free list too: the next insert appends.
  EXPECT_EQ(t.Insert({TernaryWord::FromString("XX"), 99, -1}), 4u);
}

TEST(TcamTableTest, CommitKeepsInteriorTombstoneSlotsReserved) {
  TcamTable t(2, TcamTechnology::MemristorTcam());
  for (int i = 0; i < 8; ++i) {
    t.Insert({TernaryWord::FromString("11"), static_cast<std::uint32_t>(i),
              0});
  }
  t.Erase(0);
  t.Erase(2);
  t.Erase(4);
  // Dead fraction 3/8 > 1/4 but slot 7 is live: interior tombstones
  // keep their slots (the stable-index contract) and only release their
  // pattern storage.
  t.Commit();
  EXPECT_EQ(t.slot_count(), 8u);
  EXPECT_EQ(t.size(), 5u);
  EXPECT_EQ(t.entries()[0].pattern.width(), 0u);  // storage released
  EXPECT_FALSE(t.IsLive(0));
  EXPECT_TRUE(t.IsLive(1));
  const auto hit = Search(t, BitKey::FromString("11"));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->entry_index, 1u);
  // Reserved slots are still reused, LIFO.
  EXPECT_EQ(t.Insert({TernaryWord::FromString("00"), 50, 0}), 4u);
}

TEST(TcamTableTest, EraseChurnCompactsAndStaysCorrect) {
  analognf::RandomStream rng(909);
  const std::size_t width = 16;
  TcamTable t(width, TcamTechnology::MemristorTcam());
  // Reference model: slot index -> live entry. Kept in sync through the
  // table's own returned indices; trailing trims shrink it via
  // slot_count().
  std::vector<std::optional<TcamTable::Entry>> model;
  std::uint32_t tag = 0;

  auto random_pattern = [&] {
    std::string s(width, 'X');
    for (char& c : s) {
      const std::size_t roll = rng.NextIndex(3);
      if (roll == 0) c = '0';
      if (roll == 1) c = '1';
    }
    return TernaryWord::FromString(s);
  };
  auto random_key = [&] {
    std::string s(width, '0');
    for (char& c : s) c = rng.NextIndex(2) == 0 ? '0' : '1';
    return BitKey::FromString(s);
  };
  auto check = [&](std::size_t round) {
    ASSERT_EQ(t.slot_count(), model.size()) << "round " << round;
    for (std::size_t i = 0; i < model.size(); ++i) {
      ASSERT_EQ(t.IsLive(i), model[i].has_value()) << "round " << round;
    }
    for (std::size_t probe = 0; probe < 20; ++probe) {
      const BitKey key = random_key();
      std::optional<TcamEngineHit> want;
      for (std::size_t i = 0; i < model.size(); ++i) {
        if (!model[i].has_value()) continue;
        if (!model[i]->pattern.Matches(key)) continue;
        if (!want.has_value() || model[i]->priority > want->priority) {
          want = TcamEngineHit{i, model[i]->action, model[i]->priority};
        }
      }
      const auto got = Search(t, key);
      ASSERT_EQ(got.has_value(), want.has_value()) << "round " << round;
      if (!want.has_value()) continue;
      EXPECT_EQ(got->entry_index, want->entry_index) << "round " << round;
      EXPECT_EQ(got->action, want->action) << "round " << round;
      EXPECT_EQ(got->priority, want->priority) << "round " << round;
    }
  };

  // Grow-heavy, then erase-heavy: the second half repeatedly trips the
  // 25% compaction threshold.
  for (std::size_t round = 0; round < 60; ++round) {
    const bool erase_heavy = round >= 30;
    const std::size_t ops = 1 + rng.NextIndex(4);
    for (std::size_t op = 0; op < ops; ++op) {
      const bool do_erase =
          t.size() > 0 && rng.NextIndex(10) < (erase_heavy ? 7u : 2u);
      if (do_erase) {
        std::size_t idx = rng.NextIndex(t.slot_count());
        while (!t.IsLive(idx)) idx = rng.NextIndex(t.slot_count());
        t.Erase(idx);
        model[idx].reset();
      } else {
        TcamTable::Entry entry{random_pattern(), tag++,
                               static_cast<std::int32_t>(rng.NextIndex(4))};
        const std::size_t idx = t.Insert(entry);
        if (idx >= model.size()) model.resize(idx + 1);
        model[idx] = std::move(entry);
      }
    }
    t.Commit();
    model.resize(t.slot_count());  // mirror any trailing trim
    check(round);
  }

  // Tear down to one live entry: compaction must shrink the slot array,
  // not just tombstone it.
  while (t.size() > 1) {
    std::size_t idx = rng.NextIndex(t.slot_count());
    while (!t.IsLive(idx)) idx = rng.NextIndex(t.slot_count());
    t.Erase(idx);
    model[idx].reset();
  }
  t.Commit();
  model.resize(t.slot_count());
  check(999);
  std::size_t last_live = 0;
  for (std::size_t i = 0; i < model.size(); ++i) {
    if (model[i].has_value()) last_live = i;
  }
  EXPECT_EQ(t.slot_count(), last_live + 1);  // trailing slots all trimmed
}

TEST(TcamTableTest, ErasedEntriesStopBurningEnergy) {
  TcamTable t(2, TcamTechnology::TransistorCmos());
  const std::size_t first = t.Insert({TernaryWord::FromString("00"), 1, 0});
  t.Insert({TernaryWord::FromString("11"), 2, 0});
  const double two_live = t.SearchEnergyJ();
  t.Erase(first);
  EXPECT_EQ(t.StoredBits(), 2u);  // one live entry * 2-bit key
  EXPECT_NEAR(t.SearchEnergyJ(), two_live / 2.0, 1e-20);
}

TEST(TcamTableTest, SearchEnergyScalesWithStoredBits) {
  TcamTable t(32, TcamTechnology::TransistorCmos());
  EXPECT_EQ(t.SearchEnergyJ(), 0.0);  // empty table
  t.Insert({TernaryWord::FromPrefix(1, 32), 0, 0});
  const double one_entry = t.SearchEnergyJ();
  EXPECT_NEAR(one_entry, 32 * 0.58e-15, 1e-20);
  t.Insert({TernaryWord::FromPrefix(2, 32), 0, 0});
  EXPECT_NEAR(t.SearchEnergyJ(), 2.0 * one_entry, 1e-20);
}

// Searchers charge the snapshot's search_energy_j once per search, as
// FirewallStage does.
TEST(TcamTableTest, ConsumedEnergyAccumulatesPerSearch) {
  TcamTable t(8, TcamTechnology::MemristorTcam());
  t.Insert({TernaryWord::FromString("XXXXXXXX"), 0, 0});
  t.Commit();
  const auto snap = t.snapshot();
  const BitKey key = BitKey::FromString("10101010");
  double consumed_j = 0.0;
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(snap->engine.Search(key).has_value());
    consumed_j += snap->search_energy_j;
  }
  EXPECT_NEAR(consumed_j, 2.0 * 8.0 * 1.0e-15, 1e-20);
}

TEST(TcamTableTest, SearchRejectsWidthMismatch) {
  TcamTable t(4, TcamTechnology::TransistorCmos());
  EXPECT_THROW(Search(t, BitKey::FromString("101")), std::invalid_argument);
}

// Staged mutations stay out of the published snapshot until Commit():
// searchers keep the previous epoch's rows.
TEST(TcamTableTest, StagedMutationsStayInvisibleUntilCommit) {
  TcamTable t(2, TcamTechnology::TransistorCmos());
  const std::size_t first = t.Insert({TernaryWord::FromString("00"), 1, 0});
  EXPECT_TRUE(t.NeedsCommit());
  EXPECT_EQ(t.snapshot()->epoch, 0u);
  EXPECT_FALSE(Search(t, BitKey::FromString("00")).has_value());
  t.Commit();
  EXPECT_FALSE(t.NeedsCommit());
  EXPECT_EQ(t.snapshot()->epoch, 1u);
  EXPECT_EQ(Search(t, BitKey::FromString("00"))->action, 1u);

  t.Erase(first);
  t.Insert({TernaryWord::FromString("11"), 2, 0});
  EXPECT_TRUE(t.NeedsCommit());
  EXPECT_EQ(t.snapshot()->epoch, 1u);
  EXPECT_EQ(Search(t, BitKey::FromString("00"))->action, 1u);
  EXPECT_FALSE(Search(t, BitKey::FromString("11")).has_value());

  t.Commit();
  EXPECT_EQ(t.snapshot()->epoch, 2u);
  EXPECT_FALSE(Search(t, BitKey::FromString("00")).has_value());
  EXPECT_EQ(Search(t, BitKey::FromString("11"))->action, 2u);
}

TEST(TcamTableTest, CommitBumpsSnapshotEpoch) {
  TcamTable t(2, TcamTechnology::TransistorCmos());
  EXPECT_EQ(t.snapshot()->epoch, 0u);  // construction-time empty snapshot
  t.Insert({TernaryWord::FromString("01"), 1, 0});
  t.Commit();
  const auto snap = t.snapshot();
  EXPECT_EQ(snap->epoch, 1u);
  EXPECT_EQ(snap->live_rows, 1u);
  t.Commit();  // clean: no-op, same snapshot stays published
  EXPECT_EQ(t.snapshot()->epoch, 1u);
}

// ----------------------------------------------------------- LpmTable

TEST(LpmTableTest, LongestPrefixWins) {
  LpmTable lpm(TcamTechnology::MemristorTcam());
  lpm.AddRoute(0x0A000000, 8, 1);   // 10.0.0.0/8 -> 1
  lpm.AddRoute(0x0A010000, 16, 2);  // 10.1.0.0/16 -> 2
  lpm.AddRoute(0x0A010200, 24, 3);  // 10.1.2.0/24 -> 3
  lpm.Commit();

  auto r = LookupOne(lpm, 0x0A010203);  // 10.1.2.3
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->action, 3u);

  r = LookupOne(lpm, 0x0A01FF01);  // 10.1.255.1
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->action, 2u);

  r = LookupOne(lpm, 0x0AFF0001);  // 10.255.0.1
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->action, 1u);

  EXPECT_FALSE(LookupOne(lpm, 0x0B000001).has_value());  // 11.0.0.1
}

TEST(LpmTableTest, AddRouteRejectsBadPrefixLength) {
  LpmTable lpm(TcamTechnology::MemristorTcam());
  EXPECT_THROW(lpm.AddRoute(0x0A000000, -1, 1), std::invalid_argument);
  EXPECT_THROW(lpm.AddRoute(0x0A000000, 33, 1), std::invalid_argument);
  // A rejected route stages nothing.
  EXPECT_EQ(lpm.route_count(), 0u);
  EXPECT_FALSE(lpm.NeedsCommit());
  EXPECT_EQ(lpm.AddRoute(0x0A000000, 32, 1), 0u);
}

TEST(LpmTableTest, WithdrawRouteRejectsBadIndex) {
  LpmTable lpm(TcamTechnology::MemristorTcam());
  const std::size_t route = lpm.AddRoute(0x0A000000, 8, 1);
  EXPECT_THROW(lpm.WithdrawRoute(route + 1), std::out_of_range);
  lpm.WithdrawRoute(route);
  EXPECT_THROW(lpm.WithdrawRoute(route), std::invalid_argument);
  lpm.Commit();
  EXPECT_THROW(lpm.WithdrawRoute(route), std::invalid_argument);
  EXPECT_EQ(lpm.route_count(), 0u);
}

TEST(LpmTableTest, WithdrawnIndicesAreReusedLastInFirstOut) {
  LpmTable lpm(TcamTechnology::MemristorTcam());
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(lpm.AddRoute(i << 24, 8, i), i);
  }
  lpm.WithdrawRoute(1);
  lpm.WithdrawRoute(3);
  lpm.Commit();  // commits keep the withdrawn indices reserved
  EXPECT_EQ(lpm.route_count(), 2u);
  EXPECT_EQ(lpm.AddRoute(0x0A000000, 8, 10), 3u);
  EXPECT_EQ(lpm.AddRoute(0x0B000000, 8, 11), 1u);
  EXPECT_EQ(lpm.AddRoute(0x0C000000, 8, 12), 4u);
  lpm.Commit();
  EXPECT_EQ(LookupOne(lpm, 0x0A000001)->entry_index, 3u);
  EXPECT_EQ(LookupOne(lpm, 0x0B000001)->entry_index, 1u);
  EXPECT_EQ(LookupOne(lpm, 0x0C000001)->entry_index, 4u);
}

// Every published snapshot charges the whole array: live routes x 32
// stored bits x the per-bit energy, at the technology's latency.
TEST(LpmTableTest, SnapshotCostTracksLiveRoutes) {
  const TcamTechnology tech = TcamTechnology::TransistorCmos();
  LpmConfig config;
  config.delta_policy.min_rows = 4;  // both commit paths run below
  LpmTable lpm(tech, config);
  auto expect_cost = [&](std::size_t live) {
    const auto snap = lpm.snapshot();
    EXPECT_EQ(snap->live_routes, live);
    EXPECT_EQ(snap->search_energy_j,
              static_cast<double>(live * 32) * tech.search_energy_per_bit_j);
    EXPECT_EQ(snap->search_latency_s, tech.search_latency_s);
  };
  expect_cost(0);  // the construction-time empty snapshot
  analognf::RandomStream rng(404);
  std::vector<std::size_t> live;
  for (std::size_t round = 0; round < 40; ++round) {
    const std::size_t ops = 1 + rng.NextIndex(4);
    for (std::size_t op = 0; op < ops; ++op) {
      if (!live.empty() && rng.NextIndex(3) == 0) {
        const std::size_t pick = rng.NextIndex(live.size());
        lpm.WithdrawRoute(live[pick]);
        live.erase(live.begin() + static_cast<long>(pick));
      } else {
        live.push_back(lpm.AddRoute(
            static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL)),
            static_cast<int>(rng.NextIndex(33)),
            static_cast<std::uint32_t>(round)));
      }
    }
    EXPECT_EQ(lpm.route_count(), live.size());
    lpm.Commit();
    expect_cost(live.size());
  }
  EXPECT_GT(lpm.commit_stats().delta_commits, 0u);
  EXPECT_GT(lpm.commit_stats().full_recompiles, 0u);
}

// Staged routes stay out of the published snapshot until Commit().
TEST(LpmTableTest, StagedRoutesStayInvisibleUntilCommit) {
  LpmTable lpm(TcamTechnology::MemristorTcam());
  const std::size_t eight = lpm.AddRoute(0x0A000000, 8, 1);
  EXPECT_TRUE(lpm.NeedsCommit());
  EXPECT_EQ(lpm.snapshot()->epoch, 0u);
  EXPECT_FALSE(LookupOne(lpm, 0x0A010203).has_value());
  lpm.Commit();
  EXPECT_FALSE(lpm.NeedsCommit());
  EXPECT_EQ(lpm.snapshot()->epoch, 1u);
  EXPECT_EQ(LookupOne(lpm, 0x0A010203)->action, 1u);

  lpm.AddRoute(0x0A010000, 16, 2);
  lpm.WithdrawRoute(eight);
  EXPECT_TRUE(lpm.NeedsCommit());
  EXPECT_EQ(lpm.snapshot()->epoch, 1u);
  EXPECT_EQ(lpm.snapshot()->live_routes, 1u);
  EXPECT_EQ(LookupOne(lpm, 0x0A010203)->action, 1u);
  EXPECT_EQ(LookupOne(lpm, 0x0AFF0000)->action, 1u);
  lpm.Commit();
  EXPECT_EQ(lpm.snapshot()->epoch, 2u);
  EXPECT_EQ(LookupOne(lpm, 0x0A010203)->action, 2u);
  EXPECT_FALSE(LookupOne(lpm, 0x0AFF0000).has_value());
}

TEST(LpmTableTest, DefaultRouteMatchesEverything) {
  // A policy that patches even a two-route table, so the withdrawal
  // below repaints the fills in place.
  LpmConfig config;
  config.delta_policy.min_rows = 1;
  config.delta_policy.max_delta_fraction = 1.0;
  LpmTable lpm(TcamTechnology::MemristorTcam(), config);
  lpm.AddRoute(0, 0, 9);
  const std::size_t ten = lpm.AddRoute(0x0A000000, 8, 10);  // 10.0.0.0/8
  // Both routes cover whole 16K-slot direct pages, so they paint page
  // fills: no page is allocated (one per page would be >= 1024).
  alloc_probe::count = 0;
  alloc_probe::counting = true;
  lpm.Commit();
  alloc_probe::counting = false;
  EXPECT_LE(alloc_probe::count, 16u);
  EXPECT_EQ(LookupOne(lpm, 0xFFFFFFFF)->action, 9u);
  EXPECT_EQ(LookupOne(lpm, 0x00000000)->action, 9u);
  EXPECT_EQ(LookupOne(lpm, 0x0A010203)->action, 10u);
  EXPECT_EQ(LookupOne(lpm, 0x0AFFFFFF)->action, 10u);
  EXPECT_EQ(LookupOne(lpm, 0x0B000000)->action, 9u);

  // Withdrawing the /8 hands its addresses back to the /0.
  lpm.WithdrawRoute(ten);
  lpm.Commit();
  EXPECT_TRUE(lpm.commit_stats().last_was_delta);
  EXPECT_EQ(LookupOne(lpm, 0x0A010203)->action, 9u);
  EXPECT_EQ(LookupOne(lpm, 0x0AFFFFFF)->action, 9u);
  EXPECT_EQ(LookupOne(lpm, 0xFFFFFFFF)->action, 9u);
}

// Property: for random route sets, the returned route's prefix always
// matches and no longer matching prefix exists.
class LpmProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LpmProperty, ReturnedRouteIsLongestMatch) {
  analognf::RandomStream rng(GetParam());
  LpmTable lpm(TcamTechnology::MemristorTcam());
  struct Route {
    std::uint32_t value;
    int len;
  };
  std::vector<Route> routes;
  for (int i = 0; i < 32; ++i) {
    const auto value = static_cast<std::uint32_t>(rng.NextIndex(1u << 16))
                       << 16;
    const int len = static_cast<int>(rng.NextIndex(17));  // 0..16
    routes.push_back({value, len});
    lpm.AddRoute(value, len, static_cast<std::uint32_t>(i));
  }
  lpm.Commit();
  for (int probe = 0; probe < 200; ++probe) {
    const auto addr =
        static_cast<std::uint32_t>(rng.NextIndex(0x100000000ULL));
    const auto result = LookupOne(lpm, addr);
    int best_len = -1;
    for (const Route& r : routes) {
      const int shift = 32 - r.len;
      const bool matches =
          r.len == 0 || (addr >> shift) == (r.value >> shift);
      if (matches && r.len > best_len) best_len = r.len;
    }
    if (best_len < 0) {
      EXPECT_FALSE(result.has_value());
    } else {
      ASSERT_TRUE(result.has_value());
      EXPECT_EQ(result->priority, best_len);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LpmProperty,
                         ::testing::Values(11, 22, 33, 44));

}  // namespace
}  // namespace analognf::tcam
