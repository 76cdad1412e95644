// Tests for the AQM policies: RED, CoDel, PIE baselines and the paper's
// pCAM-based analog AQM with its cognitive controller.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/aqm/aqm.hpp"
#include "analognf/aqm/aqm_queue.hpp"
#include "analognf/aqm/codel.hpp"
#include "analognf/aqm/controller.hpp"
#include "analognf/aqm/pi2.hpp"
#include "analognf/aqm/pie.hpp"
#include "analognf/aqm/red.hpp"
#include "analognf/aqm/wred.hpp"

namespace analognf::aqm {
namespace {

AqmContext MakeContext(double now_s, double sojourn_s,
                       std::uint64_t queue_packets,
                       std::uint64_t queue_bytes = 0,
                       std::uint8_t priority = 0) {
  AqmContext ctx;
  ctx.now_s = now_s;
  ctx.sojourn_s = sojourn_s;
  ctx.queue_packets = queue_packets;
  ctx.queue_bytes = queue_bytes == 0 ? queue_packets * 1000 : queue_bytes;
  ctx.packet.size_bytes = 1000;
  ctx.packet.priority = priority;
  return ctx;
}

// The admission hook as a drop decision. Used only with contexts that
// are not ECN-capable, where no policy marks.
bool Drops(AqmPolicy& policy, const AqmContext& ctx) {
  return policy.DecideOnEnqueue(ctx) == AqmVerdict::kDrop;
}

// ------------------------------------------------------------ taildrop

TEST(TailDropTest, NeverDrops) {
  TailDropOnly policy;
  EXPECT_FALSE(Drops(policy, MakeContext(0.0, 10.0, 1000)));
  EXPECT_FALSE(policy.ShouldDropOnDequeue(MakeContext(0.0, 10.0, 1000)));
  EXPECT_TRUE(std::isnan(policy.LastDropProbability()));

  // Guarding a queue, it leaves only the capacity bound.
  AqmQueue queue({.max_packets = 2}, policy);
  net::PacketMeta meta;
  meta.size_bytes = 1000;
  EXPECT_EQ(queue.Offer(meta, 0.0), Admission::kEnqueued);
  EXPECT_EQ(queue.Offer(meta, 0.0), Admission::kEnqueued);
  EXPECT_EQ(queue.Offer(meta, 0.0), Admission::kTailDropped);
  EXPECT_EQ(queue.queue().packets(), 2u);
  EXPECT_EQ(queue.queue().stats().dropped_full, 1u);
  EXPECT_EQ(queue.queue().stats().dropped_aqm, 0u);
}

// --------------------------------------------------------- AQM queue

// ECN end to end: once PI2's controller saturates, an ECN-capable
// packet offered to the queue is enqueued carrying the CE mark.
TEST(AqmQueueTest, MarkedPacketIsEnqueuedWithCeBit) {
  Pi2Config c;
  c.drain_rate_bps = 1.0e5;  // ten queued 1000 B packets = 0.8 s delay
  Pi2 pi2(c, 5);
  AqmQueue queue({}, pi2);
  net::PacketMeta ect;
  ect.size_bytes = 1000;
  ect.ecn_capable = true;
  // No controller update within the first Tupdate: p' = 0, no marks.
  for (std::uint64_t id = 0; id < 10; ++id) {
    ect.id = id;
    EXPECT_EQ(queue.Offer(ect, 0.0), Admission::kEnqueued);
  }
  // The first update drives p' to 1, so the mark probability is 1.
  ect.id = 10;
  EXPECT_EQ(queue.Offer(ect, 0.02), Admission::kMarked);
  ASSERT_DOUBLE_EQ(pi2.mark_probability_l4s(), 1.0);
  EXPECT_EQ(queue.queue().packets(), 11u);
  EXPECT_EQ(queue.queue().stats().dropped_aqm, 0u);
  for (std::uint64_t id = 0; id <= 10; ++id) {
    const auto head =
        queue.Dequeue(0.03, [](const net::PacketMeta&) { FAIL(); });
    ASSERT_TRUE(head.has_value());
    EXPECT_EQ(head->meta.id, id);
    EXPECT_EQ(head->meta.ecn_marked, id == 10) << id;
  }
}

// The CoDel head-drop loop: one Dequeue discards every head the control
// law condemns, reports each through on_drop, and returns the first
// survivor.
TEST(AqmQueueTest, CodelHeadDropsOnDequeue) {
  Codel codel;  // target 5 ms, interval 100 ms
  AqmQueue queue({}, codel);
  net::PacketMeta meta;
  meta.size_bytes = 1000;
  for (std::uint64_t id = 0; id < 100; ++id) {
    meta.id = id;
    ASSERT_EQ(queue.Offer(meta, 0.0), Admission::kEnqueued);
  }
  std::vector<std::uint64_t> dropped;
  const auto on_drop = [&](const net::PacketMeta& m) {
    dropped.push_back(m.id);
  };
  // 200 ms above target: CoDel starts its interval, drops nothing.
  auto head = queue.Dequeue(0.2, on_drop);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(head->meta.id, 0u);
  EXPECT_TRUE(dropped.empty());
  // A full interval later it enters dropping: one head drop.
  head = queue.Dequeue(0.7, on_drop);
  ASSERT_TRUE(head.has_value());
  EXPECT_EQ(dropped, std::vector<std::uint64_t>{1});
  EXPECT_EQ(head->meta.id, 2u);
  // Half a second on, the control law is several drops behind: each
  // overdue head goes in the same call, in FIFO order.
  dropped.clear();
  head = queue.Dequeue(1.2, on_drop);
  ASSERT_TRUE(head.has_value());
  ASSERT_GT(dropped.size(), 1u);
  for (std::size_t k = 0; k < dropped.size(); ++k) {
    EXPECT_EQ(dropped[k], 3 + k);
  }
  EXPECT_EQ(head->meta.id, dropped.back() + 1);
  const net::QueueStats& stats = queue.queue().stats();
  EXPECT_EQ(stats.dropped_aqm, 1 + dropped.size());
  EXPECT_EQ(stats.dequeued, 3 + stats.dropped_aqm);
  EXPECT_EQ(queue.queue().packets(), 100 - stats.dequeued);
}

// ----------------------------------------------------------------- RED

TEST(RedTest, ConfigValidation) {
  RedConfig c;
  c.min_threshold_pkts = 10.0;
  c.max_threshold_pkts = 5.0;
  EXPECT_THROW(Red(c, 1), std::invalid_argument);
  c = RedConfig{};
  c.max_p = 0.0;
  EXPECT_THROW(Red(c, 1), std::invalid_argument);
  c = RedConfig{};
  c.queue_weight = 2.0;
  EXPECT_THROW(Red(c, 1), std::invalid_argument);
}

TEST(RedTest, NoDropsBelowMinThreshold) {
  Red red(RedConfig{}, 1);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(Drops(red, MakeContext(0.001 * i, 0.0, 2)));
  }
  EXPECT_EQ(red.LastDropProbability(), 0.0);
}

TEST(RedTest, AlwaysDropsFarAboveMaxThreshold) {
  RedConfig c;
  c.queue_weight = 1.0;  // instant average for the test
  Red red(c, 2);
  EXPECT_TRUE(Drops(red, MakeContext(0.0, 0.0, 100)));
  EXPECT_EQ(red.LastDropProbability(), 1.0);
}

TEST(RedTest, IntermediateLoadDropsProportionally) {
  RedConfig c;
  c.queue_weight = 1.0;
  Red red(c, 3);
  int drops = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    // Average queue = 10, midway between 5 and 15: base p = max_p/2.
    if (Drops(red, MakeContext(0.001 * i, 0.0, 10))) ++drops;
  }
  const double rate = static_cast<double>(drops) / n;
  EXPECT_GT(rate, 0.02);
  EXPECT_LT(rate, 0.12);
}

TEST(RedTest, GentleModeRampsAboveMaxThreshold) {
  RedConfig c;
  c.queue_weight = 1.0;
  Red red(c, 4);
  Drops(red, MakeContext(0.0, 0.0, 20));  // 20 < 2*15
  EXPECT_LT(red.LastDropProbability(), 1.0);
  EXPECT_GT(red.LastDropProbability(), 0.1);
}

TEST(RedTest, AverageTracksEwma) {
  RedConfig c;
  c.queue_weight = 0.5;
  Red red(c, 5);
  Drops(red, MakeContext(0.0, 0.0, 4));
  EXPECT_NEAR(red.average_queue_pkts(), 4.0, 1e-12);
  Drops(red, MakeContext(0.001, 0.0, 8));
  EXPECT_NEAR(red.average_queue_pkts(), 6.0, 1e-12);
}

// --------------------------------------------------------------- CoDel

TEST(CodelTest, ConfigValidation) {
  CodelConfig c;
  c.target_s = 0.0;
  EXPECT_THROW(Codel{c}, std::invalid_argument);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  c = CodelConfig{};
  c.target_s = kInf;
  EXPECT_THROW(Codel{c}, std::invalid_argument);
  c = CodelConfig{};
  c.interval_s = kInf;
  EXPECT_THROW(Codel{c}, std::invalid_argument);
}

TEST(CodelTest, NoDropsWhileBelowTarget) {
  Codel codel;
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(
        codel.ShouldDropOnDequeue(MakeContext(0.001 * i, 0.001, 10)));
  }
  EXPECT_FALSE(codel.dropping());
}

TEST(CodelTest, SustainedHighSojournTriggersDropping) {
  Codel codel;
  int drops = 0;
  for (int i = 0; i < 2000; ++i) {
    if (codel.ShouldDropOnDequeue(MakeContext(0.001 * i, 0.050, 10))) {
      ++drops;
    }
  }
  EXPECT_TRUE(codel.dropping());
  EXPECT_GT(drops, 5);
}

TEST(CodelTest, DropRateAcceleratesWithSqrtLaw) {
  Codel codel;
  std::vector<double> drop_times;
  for (int i = 0; i < 20000; ++i) {
    const double now = 0.0005 * i;
    if (codel.ShouldDropOnDequeue(MakeContext(now, 0.050, 10))) {
      drop_times.push_back(now);
    }
  }
  ASSERT_GT(drop_times.size(), 6u);
  // Gaps between consecutive drops shrink.
  const double first_gap = drop_times[1] - drop_times[0];
  const double later_gap = drop_times[5] - drop_times[4];
  EXPECT_LT(later_gap, first_gap);
}

TEST(CodelTest, RecoversWhenDelayFalls) {
  Codel codel;
  for (int i = 0; i < 2000; ++i) {
    codel.ShouldDropOnDequeue(MakeContext(0.001 * i, 0.050, 10));
  }
  ASSERT_TRUE(codel.dropping());
  // Sojourn falls below target: dropping state exits.
  codel.ShouldDropOnDequeue(MakeContext(2.5, 0.001, 10));
  codel.ShouldDropOnDequeue(MakeContext(2.6, 0.001, 10));
  EXPECT_FALSE(codel.dropping());
}

TEST(CodelTest, NearEmptyQueueSuppressesDrops) {
  Codel codel;
  // Single-packet queue: never drop even at high sojourn.
  AqmContext ctx = MakeContext(0.0, 0.050, 1);
  ctx.queue_bytes = ctx.packet.size_bytes;  // only this packet
  for (int i = 0; i < 500; ++i) {
    ctx.now_s = 0.001 * i;
    EXPECT_FALSE(codel.ShouldDropOnDequeue(ctx));
  }
}

// RFC 8289 re-entry: a dropping episode that resumes within 16 intervals
// of the previous one continues from that episode's drop count (delta =
// count - lastcount), not from scratch. Two-episode regression: episode
// one needs several drops; episode two re-enters between 8 and 16
// intervals after the last scheduled drop, so both the old 8-interval
// window and the old count-minus-2 rule would get this wrong.
TEST(CodelTest, ReEntryResumesFromPriorEpisodeDropCount) {
  Codel codel;  // target 5 ms, interval 100 ms
  int first_episode_drops = 0;
  for (int i = 0; i * 0.005 < 0.5; ++i) {
    if (codel.ShouldDropOnDequeue(MakeContext(i * 0.005, 0.050, 10))) {
      ++first_episode_drops;
    }
  }
  ASSERT_TRUE(codel.dropping());
  ASSERT_GE(first_episode_drops, 4);
  EXPECT_EQ(codel.drop_count(),
            static_cast<std::uint32_t>(first_episode_drops));
  // Delay recovers: leave the dropping state (count is retained).
  codel.ShouldDropOnDequeue(MakeContext(0.5, 0.001, 10));
  ASSERT_FALSE(codel.dropping());
  // Congestion returns at t = 1.6; sojourn must stay above target for a
  // full interval, so the episode-two entry lands at t ~ 1.7 — about 1.2 s
  // (= 12 intervals) after the last scheduled drop_next.
  bool reentry_drop = false;
  for (int i = 0; !reentry_drop && i * 0.005 <= 0.12; ++i) {
    reentry_drop =
        codel.ShouldDropOnDequeue(MakeContext(1.6 + i * 0.005, 0.050, 10));
  }
  ASSERT_TRUE(reentry_drop);
  ASSERT_TRUE(codel.dropping());
  // delta = episode-one count - lastcount(1), NOT count - 2 and NOT a
  // restart from 1.
  EXPECT_EQ(codel.drop_count(),
            static_cast<std::uint32_t>(first_episode_drops - 1));
}

TEST(CodelTest, ReEntryRestartsAfterSixteenIntervals) {
  Codel codel;
  // Episode one: accumulate drops until t = 0.5.
  int first_episode_drops = 0;
  for (int i = 0; i * 0.005 < 0.5; ++i) {
    if (codel.ShouldDropOnDequeue(MakeContext(i * 0.005, 0.050, 10))) {
      ++first_episode_drops;
    }
  }
  ASSERT_GE(first_episode_drops, 4);
  codel.ShouldDropOnDequeue(MakeContext(0.5, 0.001, 10));
  ASSERT_FALSE(codel.dropping());
  // Far outside the 16-interval window (drop_next was ~0.5 s, re-entry
  // lands ~4.1 s later): the control law restarts from count = 1.
  bool reentry_drop = false;
  for (int i = 0; !reentry_drop && i * 0.005 <= 0.12; ++i) {
    reentry_drop =
        codel.ShouldDropOnDequeue(MakeContext(4.5 + i * 0.005, 0.050, 10));
  }
  ASSERT_TRUE(reentry_drop);
  EXPECT_EQ(codel.drop_count(), 1u);
}

// Independent transcription of the RFC 8289 Sec. 4 pseudocode (the
// dodeque/deque pair), run in lock-step with Codel over a congestion /
// recovery / congestion trace. Every decision must agree.
struct CodelOracle {
  double target = 0.005;
  double interval = 0.100;
  double first_above_time = 0.0;
  double drop_next = 0.0;
  std::uint32_t count = 0;
  std::uint32_t lastcount = 0;
  bool dropping = false;

  double ControlLaw(double t) const {
    return t + interval / std::sqrt(static_cast<double>(count));
  }

  bool Dequeue(double now, double sojourn, std::uint64_t queue_bytes,
               std::uint64_t packet_bytes) {
    bool ok_to_drop = false;
    if (sojourn < target || queue_bytes <= packet_bytes) {
      first_above_time = 0.0;
    } else if (first_above_time == 0.0) {
      first_above_time = now + interval;
    } else if (now >= first_above_time) {
      ok_to_drop = true;
    }
    if (dropping) {
      if (!ok_to_drop) {
        dropping = false;
        return false;
      }
      if (now >= drop_next) {
        ++count;
        drop_next = ControlLaw(drop_next);
        return true;
      }
      return false;
    }
    if (ok_to_drop) {
      dropping = true;
      const std::uint32_t delta = count - lastcount;
      count = (delta > 1 && now - drop_next < 16.0 * interval) ? delta : 1;
      lastcount = count;
      drop_next = ControlLaw(now);
      return true;
    }
    return false;
  }
};

TEST(CodelTest, MatchesRfc8289OracleOverCongestionCycles) {
  Codel codel;
  CodelOracle oracle;
  // Sojourn trace: three congestion episodes separated by recoveries of
  // different lengths (the second recovery is long enough to expire the
  // 16-interval re-entry window).
  const auto sojourn_at = [](double t) {
    if (t < 0.8) return 0.050;
    if (t < 1.0) return 0.001;
    if (t < 2.4) return 0.040;
    if (t < 4.4) return 0.001;
    return 0.060;
  };
  for (int i = 0; i < 1200; ++i) {
    const double now = i * 0.005;
    const double sojourn = sojourn_at(now);
    const bool got =
        codel.ShouldDropOnDequeue(MakeContext(now, sojourn, 10));
    const bool want = oracle.Dequeue(now, sojourn, 10000, 1000);
    ASSERT_EQ(got, want) << "decision diverged at t=" << now;
    ASSERT_EQ(codel.drop_count(), oracle.count) << "count at t=" << now;
  }
  EXPECT_GT(oracle.count, 0u);
}

// ----------------------------------------------------------------- PIE

TEST(PieTest, ConfigValidation) {
  PieConfig c;
  c.target_delay_s = 0.0;
  EXPECT_THROW(Pie(c, 1), std::invalid_argument);
  c = PieConfig{};
  c.drain_rate_bps = 0.0;
  EXPECT_THROW(Pie(c, 1), std::invalid_argument);
  // An infinite rate would make p = inf * 0 = NaN at the target delay.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double PieConfig::*field :
       {&PieConfig::target_delay_s, &PieConfig::drain_rate_bps}) {
    c = PieConfig{};
    c.*field = kInf;
    EXPECT_THROW(Pie(c, 1), std::invalid_argument);
  }
}

TEST(PieTest, BurstAllowanceSuppressesEarlyDrops) {
  Pie pie(PieConfig{}, 2);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(Drops(pie, MakeContext(0.001 * i, 0.0, 100, 2000000)));
  }
}

TEST(PieTest, DropProbabilityRisesUnderSustainedDelay) {
  PieConfig c;
  c.drain_rate_bps = 10e6;
  Pie pie(c, 3);
  // 125 kB queue at 10 Mb/s = 100 ms >> 15 ms target.
  for (int i = 0; i < 3000; ++i) {
    Drops(pie, MakeContext(0.001 * i, 0.0, 125, 125000));
  }
  EXPECT_GT(pie.LastDropProbability(), 0.01);
  EXPECT_GT(pie.current_delay_estimate_s(), 0.05);
}

TEST(PieTest, DropProbabilityFallsWhenDelayClears) {
  PieConfig c;
  Pie pie(c, 4);
  for (int i = 0; i < 3000; ++i) {
    Drops(pie, MakeContext(0.001 * i, 0.0, 125, 125000));
  }
  const double peak = pie.LastDropProbability();
  for (int i = 3000; i < 9000; ++i) {
    Drops(pie, MakeContext(0.001 * i, 0.0, 1, 100));
  }
  EXPECT_LT(pie.LastDropProbability(), peak);
}

TEST(PieTest, TinyQueueNeverDropped) {
  Pie pie(PieConfig{}, 5);
  for (int i = 0; i < 3000; ++i) {
    Drops(pie, MakeContext(0.001 * i, 0.0, 125, 125000));
  }
  // Even with high probability, a <2 packet queue is protected.
  EXPECT_FALSE(Drops(pie, MakeContext(3.1, 0.0, 1, 1000)));
}

// Straight-line transcription of RFC 8033 Sec. 5.2's periodic update
// (per-update gain convention, as Pie documents): the auto-tuning
// scale table, the PI step, the idle multiplicative decay, the clamp.
// Used as a differential oracle for Pie's drop-probability sequence.
struct PieUpdateOracle {
  PieConfig config;
  double p = 0.0;
  double qdelay = 0.0;
  double qdelay_old = 0.0;

  void Update(std::uint64_t queue_bytes) {
    qdelay =
        static_cast<double>(queue_bytes) * 8.0 / config.drain_rate_bps;
    double scale = 1.0;
    if (p < 0.000001) {
      scale = 1.0 / 2048.0;
    } else if (p < 0.00001) {
      scale = 1.0 / 512.0;
    } else if (p < 0.0001) {
      scale = 1.0 / 128.0;
    } else if (p < 0.001) {
      scale = 1.0 / 32.0;
    } else if (p < 0.01) {
      scale = 1.0 / 8.0;
    } else if (p < 0.1) {
      scale = 1.0 / 2.0;
    }
    double next = p;
    next += scale * Pie::kAlpha * (qdelay - config.target_delay_s);
    next += scale * Pie::kBeta * (qdelay - qdelay_old);
    if (qdelay == 0.0 && qdelay_old == 0.0) {
      next *= 0.98;  // RFC 8033: PIE_prob_decay while the queue is idle
    }
    p = std::clamp(next, 0.0, 1.0);
    qdelay_old = qdelay;
  }
};

TEST(PieTest, MatchesRfc8033OracleThroughCongestionAndIdle) {
  PieConfig c;
  Pie pie(c, 11);
  PieUpdateOracle oracle{c};
  double now = 0.0;
  // First call only initialises the update clock.
  Drops(pie, MakeContext(now, 0.0, 125, 125000));
  const auto step = [&](std::uint64_t pkts, std::uint64_t bytes) {
    now += 0.016;  // > update interval: exactly one update per call
    Drops(pie, MakeContext(now, 0.0, pkts, bytes));
    oracle.Update(bytes);
  };
  // 60 congested updates: 125 kB standing queue = 100 ms >> target.
  for (int i = 0; i < 60; ++i) {
    step(125, 125000);
    ASSERT_NEAR(pie.LastDropProbability(), oracle.p, 1e-12)
        << "congested update " << i;
  }
  // Idle updates: empty queue, zero delay estimate. The sequence only
  // matches an oracle that applies the multiplicative idle decay.
  for (int i = 0; i < 400; ++i) {
    step(0, 0);
    ASSERT_NEAR(pie.LastDropProbability(), oracle.p, 1e-12)
        << "idle update " << i;
  }
  EXPECT_LT(pie.LastDropProbability(), 1e-4);
}

TEST(PieTest, IdleUpdatesDecayDropProbabilityMultiplicatively) {
  PieConfig c;
  Pie pie(c, 12);
  double now = 0.0;
  Drops(pie, MakeContext(now, 0.0, 125, 125000));
  for (int i = 0; i < 60; ++i) {
    now += 0.016;
    Drops(pie, MakeContext(now, 0.0, 125, 125000));
  }
  ASSERT_GT(pie.LastDropProbability(), 0.1);
  // First empty-queue update: the previous delay sample is nonzero, so
  // this is the transition step (additive only).
  now += 0.016;
  Drops(pie, MakeContext(now, 0.0, 0, 0));
  const double p1 = pie.LastDropProbability();
  ASSERT_GT(p1, 0.1);  // scale = 1 territory for the next step
  // Second consecutive idle update: RFC 8033 decays multiplicatively,
  // p <- (p + alpha*(0 - target)) * 0.98. Without the decay the step
  // misses by ~2% of p — far outside this tolerance.
  now += 0.016;
  Drops(pie, MakeContext(now, 0.0, 0, 0));
  EXPECT_NEAR(pie.LastDropProbability(),
              (p1 + Pie::kAlpha * (0.0 - c.target_delay_s)) * 0.98, 1e-9);
  // And the decay drains the controller at the RFC's pace: below 1e-4
  // within ~150 further idle updates from p ~ 0.4. The additive path
  // alone (no decay) needs ~250+ updates from here.
  int idle_updates = 2;
  while (pie.LastDropProbability() >= 1e-4 && idle_updates < 400) {
    now += 0.016;
    Drops(pie, MakeContext(now, 0.0, 0, 0));
    ++idle_updates;
  }
  EXPECT_LT(pie.LastDropProbability(), 1e-4);
  EXPECT_LE(idle_updates, 200);
}

TEST(PieTest, BurstReArmsAfterControllerBacksOff) {
  PieConfig c;
  Pie pie(c, 13);
  double now = 0.0;
  Drops(pie, MakeContext(now, 0.0, 125, 125000));
  // Exhaust the burst allowance and raise p under standing congestion.
  for (int i = 0; i < 60; ++i) {
    now += 0.016;
    Drops(pie, MakeContext(now, 0.0, 125, 125000));
  }
  ASSERT_EQ(pie.burst_allowance_s(), 0.0);
  ASSERT_GT(pie.LastDropProbability(), 0.1);
  // Recovery with a *near*-empty queue: 100 bytes = 80 us of estimated
  // delay — far below target/2 but never exactly zero, so a re-arm
  // keyed on exact zero-delay equality would never fire. RFC 8033
  // re-arms once p has fully backed off and both delay samples sit
  // below target/2.
  for (int i = 0; i < 2000 && pie.burst_allowance_s() == 0.0; ++i) {
    now += 0.016;
    Drops(pie, MakeContext(now, 0.0, 1, 100));
  }
  EXPECT_EQ(pie.LastDropProbability(), 0.0);
  EXPECT_EQ(pie.burst_allowance_s(), Pie::kMaxBurstS);
  // The restored allowance suppresses drops through the next burst.
  now += 0.016;
  EXPECT_FALSE(Drops(pie, MakeContext(now, 0.0, 125, 125000)));
}

// ----------------------------------------------------------------- PI2

TEST(Pi2Test, ConfigValidation) {
  Pi2Config c;
  c.target_delay_s = 0.0;
  EXPECT_THROW(Pi2(c, 1), std::invalid_argument);
  c = Pi2Config{};
  c.drain_rate_bps = 0.0;
  EXPECT_THROW(Pi2(c, 1), std::invalid_argument);
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (double Pi2Config::*field :
       {&Pi2Config::target_delay_s, &Pi2Config::drain_rate_bps}) {
    c = Pi2Config{};
    c.*field = kInf;
    EXPECT_THROW(Pi2(c, 1), std::invalid_argument);
  }
}

// Straight-line RFC 9332 oracle: PI update on the base probability p'
// with no gain-scale table, plus the idle decay dualpi2 keeps.
struct Pi2UpdateOracle {
  Pi2Config config;
  double p = 0.0;  // p'
  double qdelay = 0.0;
  double qdelay_old = 0.0;

  void Update(std::uint64_t queue_bytes) {
    qdelay =
        static_cast<double>(queue_bytes) * 8.0 / config.drain_rate_bps;
    double next = p;
    next += Pi2::kAlpha * (qdelay - config.target_delay_s);
    next += Pi2::kBeta * (qdelay - qdelay_old);
    if (qdelay == 0.0 && qdelay_old == 0.0) next *= 0.98;
    p = std::clamp(next, 0.0, 1.0);
    qdelay_old = qdelay;
  }
};

TEST(Pi2Test, MatchesRfc9332CouplingOracle) {
  Pi2Config c;
  Pi2 pi2(c, 21);
  Pi2UpdateOracle oracle{c};
  double now = 0.0;
  Drops(pi2, MakeContext(now, 0.0, 30, 30000));  // init
  // Congestion ramp, then drain, then idle — the oracle must track p'
  // through all three regimes, and the reported drop probability must be
  // the squared coupling of it at every step.
  const auto bytes_at = [](int i) -> std::uint64_t {
    if (i < 50) return 60000;  // 48 ms delay at 10 Mb/s
    if (i < 80) return 15000;  // 12 ms: below target, p' falls
    return 0;                  // idle
  };
  for (int i = 0; i < 200; ++i) {
    now += 0.017;  // > Tupdate (16 ms): one update per call
    const std::uint64_t bytes = bytes_at(i);
    Drops(pi2, MakeContext(now, 0.0, bytes / 1000, bytes));
    oracle.Update(bytes);
    ASSERT_NEAR(pi2.base_probability(), oracle.p, 1e-12) << "update " << i;
    ASSERT_NEAR(pi2.LastDropProbability(), oracle.p * oracle.p, 1e-12);
    ASSERT_NEAR(pi2.mark_probability_l4s(),
                std::min(1.0, Pi2::kCouplingK * oracle.p), 1e-12);
  }
  EXPECT_LT(pi2.base_probability(), 1e-3);  // idle decay drained it
}

TEST(Pi2Test, SaturatedControllerDropsClassicAndMarksL4s) {
  Pi2Config c;
  Pi2 pi2(c, 22);
  double now = 0.0;
  Drops(pi2, MakeContext(now, 0.0, 500, 500000));
  // 400 ms of standing delay saturates p' to 1 almost immediately.
  for (int i = 0; i < 20; ++i) {
    now += 0.017;
    Drops(pi2, MakeContext(now, 0.0, 500, 500000));
  }
  ASSERT_DOUBLE_EQ(pi2.base_probability(), 1.0);
  EXPECT_DOUBLE_EQ(pi2.LastDropProbability(), 1.0);
  EXPECT_DOUBLE_EQ(pi2.mark_probability_l4s(), 1.0);
  // Classic (non-ECN) path: certain drop. Scalable path: certain mark,
  // never a drop — L4S sheds load by signalling, not by discarding.
  AqmContext classic = MakeContext(now + 0.001, 0.0, 500, 500000);
  EXPECT_EQ(pi2.DecideOnEnqueue(classic), AqmVerdict::kDrop);
  AqmContext scalable = MakeContext(now + 0.002, 0.0, 500, 500000);
  scalable.packet.ecn_capable = true;
  EXPECT_EQ(pi2.DecideOnEnqueue(scalable), AqmVerdict::kMark);
}

TEST(Pi2Test, SquaredVsLinearCouplingFrequencies) {
  Pi2Config c;
  Pi2 pi2(c, 23);
  double now = 0.0;
  Drops(pi2, MakeContext(now, 0.0, 30, 30000));
  // Drive p' to a mid value, then freeze it (calls within Tupdate do
  // not update) and measure empirical drop/mark frequencies.
  while (pi2.base_probability() < 0.25) {
    now += 0.017;
    Drops(pi2, MakeContext(now, 0.0, 60, 60000));
  }
  const double p = pi2.base_probability();
  ASSERT_GT(p, 0.25);
  ASSERT_LT(p, 0.6);
  int drops = 0;
  int marks = 0;
  const int kTrials = 20000;
  for (int i = 0; i < kTrials; ++i) {
    AqmContext ctx = MakeContext(now, 0.0, 60, 60000);  // same instant
    if (pi2.DecideOnEnqueue(ctx) == AqmVerdict::kDrop) ++drops;
    ctx.packet.ecn_capable = true;
    if (pi2.DecideOnEnqueue(ctx) == AqmVerdict::kMark) ++marks;
  }
  EXPECT_DOUBLE_EQ(pi2.base_probability(), p);  // frozen, as intended
  const double drop_freq = static_cast<double>(drops) / kTrials;
  const double mark_freq = static_cast<double>(marks) / kTrials;
  EXPECT_NEAR(drop_freq, p * p, 0.02);
  EXPECT_NEAR(mark_freq, std::min(1.0, Pi2::kCouplingK * p), 0.02);
}

TEST(Pi2Test, TinyQueueProtected) {
  Pi2Config c;
  Pi2 pi2(c, 24);
  double now = 0.0;
  Drops(pi2, MakeContext(now, 0.0, 500, 500000));
  for (int i = 0; i < 20; ++i) {
    now += 0.017;
    Drops(pi2, MakeContext(now, 0.0, 500, 500000));
  }
  ASSERT_DOUBLE_EQ(pi2.base_probability(), 1.0);
  // The <2 packet safeguard holds even at p' = 1.
  EXPECT_EQ(pi2.DecideOnEnqueue(MakeContext(now, 0.0, 1, 1000)),
            AqmVerdict::kAccept);
}

// ------------------------------------------------------------- Analog

AnalogAqmConfig TestAnalogConfig() {
  AnalogAqmConfig c;
  c.hardware.state_levels = 256;
  return c;
}

TEST(AnalogAqmTest, ConfigValidation) {
  AnalogAqmConfig c = TestAnalogConfig();
  c.max_deviation_s = 0.030;  // > target
  EXPECT_THROW(AnalogAqm{c}, std::invalid_argument);
  c = TestAnalogConfig();
  c.derivative_orders = 4;
  EXPECT_THROW(AnalogAqm{c}, std::invalid_argument);
}

TEST(AnalogAqmTest, SpecHasPaperFieldNames) {
  AnalogAqm aqm(TestAnalogConfig());
  const auto& read = aqm.table().spec().read;
  // 1 sojourn + 3 derivatives + 1 buffer + 3 derivatives = 8 stages.
  ASSERT_EQ(read.size(), 8u);
  EXPECT_EQ(read[0].name, "sojourn_time");
  EXPECT_EQ(read[1].name, "d/dt(sojourn_time)");
  EXPECT_EQ(read[3].name, "d3/dt3(sojourn_time)");
  EXPECT_EQ(read[4].name, "buffer_size");
  EXPECT_EQ(read[7].name, "d3/dt3(buffer_size)");
}

TEST(AnalogAqmTest, FeatureFamiliesFollowConfig) {
  AnalogAqmConfig c = TestAnalogConfig();
  c.derivative_orders = 1;
  AnalogAqm aqm(c);
  // Base + 1st derivative for each of the sojourn and buffer families.
  EXPECT_EQ(aqm.table().spec().read.size(), 4u);
}

TEST(AnalogAqmTest, NoDropsWhenQueueIsHealthy) {
  AnalogAqm aqm(TestAnalogConfig());
  for (int i = 0; i < 2000; ++i) {
    // 2 ms sojourn, small queue: far below the 20 ms target.
    EXPECT_FALSE(Drops(aqm, MakeContext(0.001 * i, 0.002, 3, 3000)));
  }
  EXPECT_EQ(aqm.LastDropProbability(), 0.0);
}

TEST(AnalogAqmTest, SaturatedQueueAlwaysDrops) {
  AnalogAqm aqm(TestAnalogConfig());
  int drops = 0;
  for (int i = 0; i < 3000; ++i) {
    // 80 ms sojourn: far above target + deviation.
    if (Drops(aqm, MakeContext(0.001 * i, 0.080, 200, 200000))) {
      ++drops;
    }
  }
  // After derivative transients settle, PDP saturates to ~1.
  EXPECT_GT(drops, 2500);
  EXPECT_GT(aqm.LastDropProbability(), 0.9);
}

TEST(AnalogAqmTest, PdpRampsInsideDeviationBand) {
  AnalogAqm aqm(TestAnalogConfig());
  // Hold sojourn at the target: PDP should be mid-ramp (not 0, not 1).
  double pdp = 0.0;
  for (int i = 0; i < 3000; ++i) {
    Drops(aqm, MakeContext(0.001 * i, 0.020, 20, 20000));
    pdp = aqm.LastDropProbability();
  }
  EXPECT_GT(pdp, 0.2);
  EXPECT_LT(pdp, 0.8);
}

TEST(AnalogAqmTest, HighPriorityGetsRelief) {
  // Two identical policies, fed identical congestion; the only change is
  // the packet priority at the final decision.
  AnalogAqmConfig c = TestAnalogConfig();
  AnalogAqm low(c);
  AnalogAqm high(c);
  double low_pdp = 0.0;
  double high_pdp = 0.0;
  for (int i = 0; i < 2000; ++i) {
    Drops(low, MakeContext(0.001 * i, 0.028, 30, 30000, /*priority=*/0));
    Drops(high, MakeContext(0.001 * i, 0.028, 30, 30000, /*priority=*/7));
    low_pdp = low.LastDropProbability();
    high_pdp = high.LastDropProbability();
  }
  EXPECT_GT(low_pdp, 0.0);
  EXPECT_NEAR(high_pdp, low_pdp * AnalogAqm::kHighPriorityRelief, 0.05);
}

TEST(AnalogAqmTest, EnergyLedgerPopulated) {
  AnalogAqm aqm(TestAnalogConfig());
  Drops(aqm, MakeContext(0.0, 0.010, 10, 10000));
  EXPECT_GT(aqm.ConsumedEnergyJ(), 0.0);
  EXPECT_GT(aqm.ledger().Of(energy::category::kPcamSearch).operations, 0u);
  EXPECT_GT(aqm.ledger().Of(energy::category::kDacConvert).operations, 0u);
}

TEST(AnalogAqmTest, EvaluatePdpMonotoneInSojournVoltage) {
  AnalogAqm aqm(TestAnalogConfig());
  // Build feature vectors with quiescent derivatives and sweep the
  // sojourn stage input across its ramp.
  const std::vector<double> low =
      aqm.FeaturesToVoltages({0.005, 0.0, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
  const std::vector<double> mid =
      aqm.FeaturesToVoltages({0.020, 0.0, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
  const std::vector<double> high =
      aqm.FeaturesToVoltages({0.040, 0.0, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
  const double p_low = aqm.EvaluatePdp(low);
  const double p_mid = aqm.EvaluatePdp(mid);
  const double p_high = aqm.EvaluatePdp(high);
  EXPECT_LT(p_low, p_mid);
  EXPECT_LT(p_mid, p_high);
  EXPECT_NEAR(p_low, 0.0, 0.05);
  EXPECT_NEAR(p_high, 1.0, 0.05);
}

// `hardware.seed` is the AQM's one seed: it draws the table's device
// variation, so two seeds give two sets of device conductances and the
// same search dissipates different energy; one seed reproduces it.
TEST(AnalogAqmTest, HardwareSeedDrawsTheTablesDeviceVariation) {
  const auto search_energy = [](std::uint64_t seed) {
    AnalogAqmConfig c = TestAnalogConfig();
    c.hardware.apply_device_variation = true;
    c.hardware.seed = seed;
    AnalogAqm aqm(c);
    aqm.EvaluatePdp(aqm.FeaturesToVoltages({0.020, 0.0, 0.0, 0.0},
                                           {0.1, 0.0, 0.0, 0.0}));
    return aqm.ledger().Of(energy::category::kPcamSearch).energy_j;
  };
  EXPECT_GT(search_energy(1), 0.0);
  EXPECT_EQ(search_energy(1), search_energy(1));
  EXPECT_NE(search_energy(1), search_energy(2));
}

TEST(AnalogAqmTest, QuiescentDerivativesAreNeutral) {
  AnalogAqm aqm(TestAnalogConfig());
  // With all derivatives at 0 and a mid-ramp sojourn, the product of the
  // modulator stages should sit near 1 so the base ramp dominates.
  const std::vector<double> features =
      aqm.FeaturesToVoltages({0.020, 0.0, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
  core::AnalogMatchActionTable::Output out;
  aqm.table().Apply(features, out);
  double modulators = 1.0;
  for (std::size_t i = 1; i < out.per_field.size(); ++i) {
    modulators *= out.per_field[i];
  }
  EXPECT_NEAR(modulators, 1.0, 0.15);
}

TEST(AnalogAqmTest, RisingCongestionBoostsPdp) {
  AnalogAqm aqm(TestAnalogConfig());
  // Same sojourn, but a strongly positive first derivative.
  const std::vector<double> steady =
      aqm.FeaturesToVoltages({0.020, 0.0, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
  const std::vector<double> rising =
      aqm.FeaturesToVoltages({0.020, 0.8, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
  EXPECT_GT(aqm.EvaluatePdp(rising), aqm.EvaluatePdp(steady));
}

TEST(AnalogAqmTest, DrainingQueueCutsPdp) {
  AnalogAqm aqm(TestAnalogConfig());
  const std::vector<double> steady =
      aqm.FeaturesToVoltages({0.020, 0.0, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
  const std::vector<double> draining =
      aqm.FeaturesToVoltages({0.020, -0.8, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
  EXPECT_LT(aqm.EvaluatePdp(draining), aqm.EvaluatePdp(steady));
}

TEST(AnalogAqmTest, UpdatePcamRetargetsRamp) {
  // The update_pCAM action: reprogram the sojourn stage for a much lower
  // target and verify a formerly-safe delay now draws drops.
  AnalogAqm aqm(TestAnalogConfig());
  const std::vector<double> features =
      aqm.FeaturesToVoltages({0.008, 0.0, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
  EXPECT_NEAR(aqm.EvaluatePdp(features), 0.0, 0.05);

  // Reprogram: ramp now spans 2..6 ms.
  EXPECT_TRUE(aqm.ProgramBand(0.002, 0.006));
  EXPECT_GT(aqm.EvaluatePdp(features), 0.9);
}

void ExpectSameParams(const core::PcamParams& a, const core::PcamParams& b) {
  EXPECT_EQ(std::memcmp(&a, &b, sizeof(core::PcamParams)), 0)
      << a.m1 << ' ' << a.m2 << ' ' << a.m3 << ' ' << a.m4 << " vs " << b.m1
      << ' ' << b.m2 << ' ' << b.m3 << ' ' << b.m4;
}

// The constructor programs the sojourn stage through the same band
// mapping ProgramBand uses: reprogramming the configured band is a
// bit-identical no-op.
TEST(AnalogAqmTest, ProgramBandOfConfiguredBandKeepsConstructedProgram) {
  AnalogAqm aqm(TestAnalogConfig());
  const core::PcamParams built = aqm.table().spec().read[0].program;
  const core::PcamParams realised =
      aqm.table().pipeline().cell(0).effective_params();
  const AnalogAqmConfig& c = aqm.config();
  EXPECT_TRUE(aqm.ProgramBand(c.target_delay_s - c.max_deviation_s,
                              c.target_delay_s + c.max_deviation_s));
  ExpectSameParams(aqm.table().spec().read[0].program, built);
  ExpectSameParams(aqm.table().pipeline().cell(0).effective_params(),
                   realised);
}

// A band whose edges both clamp to one rail of the sojourn map cannot be
// a ramp: ProgramBand refuses it and leaves the program untouched.
TEST(AnalogAqmTest, ProgramBandClampedToOneRailChangesNothing) {
  AnalogAqm aqm(TestAnalogConfig());
  const core::PcamParams built = aqm.table().spec().read[0].program;
  const core::PcamParams realised =
      aqm.table().pipeline().cell(0).effective_params();
  const double energy_j =
      aqm.table().pipeline().cell(0).ConsumedProgrammingEnergyJ();
  EXPECT_FALSE(aqm.ProgramBand(1.0, 2.0));     // both above the domain
  EXPECT_FALSE(aqm.ProgramBand(-2.0, -1.0));   // both below it
  ExpectSameParams(aqm.table().spec().read[0].program, built);
  ExpectSameParams(aqm.table().pipeline().cell(0).effective_params(),
                   realised);
  EXPECT_EQ(aqm.table().pipeline().cell(0).ConsumedProgrammingEnergyJ(),
            energy_j);
}

// Decisions shaped like the switch's ingress batches: 64 decisions share
// one timestamp and one head sojourn, and the queue grows only on an
// accept, so consecutive pCAM inputs often repeat bit for bit and the
// pipeline replays them.
template <typename Visit>
void RunBatchedDecisions(AnalogAqm& aqm, int decisions, Visit visit,
                         double start_s = 0.0) {
  double now_s = start_s;
  double sojourn_s = 0.0;
  std::uint64_t queue_bytes = 20000;
  for (int i = 0; i < decisions; ++i) {
    if (i % 64 == 0) {
      now_s += 1.0e-4;
      sojourn_s = 0.012 + 0.02 * std::fabs(std::sin(0.37 * i));
      queue_bytes = 20000 + static_cast<std::uint64_t>(i % 7000) * 10;
    }
    const AqmVerdict verdict = aqm.DecideOnEnqueue(MakeContext(
        now_s, sojourn_s, queue_bytes / 1000, queue_bytes,
        static_cast<std::uint8_t>(i % 5 == 0 ? 6 : 0)));
    if (verdict == AqmVerdict::kAccept) queue_bytes += 1000;
    visit(verdict);
  }
}

// ConsumedEnergyJ() sums the cached meters instead of walking the
// ledger; it must be the very double ledger().TotalJ() returns.
TEST(AnalogAqmTest, ConsumedEnergyIsLedgerTotalBitwise) {
  AnalogAqm aqm(TestAnalogConfig());
  int mismatches = 0;
  auto check = [&](AqmVerdict) {
    if (aqm.ConsumedEnergyJ() != aqm.ledger().TotalJ()) ++mismatches;
  };
  RunBatchedDecisions(aqm, 10000, check);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(aqm.ConsumedEnergyJ(), aqm.ledger().TotalJ());
  EXPECT_GT(aqm.table().pipeline().replays(), 0u);

  aqm.table().UpdatePcam(
      "sojourn_time", core::PcamParams::MakeTrapezoid(1.5, 2.0, 4.5, 5.0));
  RunBatchedDecisions(aqm, 1000, check, /*start_s=*/1.0);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(aqm.ConsumedEnergyJ(), aqm.ledger().TotalJ());
}

// The pipeline's replay memo changes no decision: an AQM whose memo is
// dropped before every decision (the mutable cell() accessor drops it)
// makes the same verdicts with the same PDPs and the same ledger.
TEST(AnalogAqmTest, ReplayedDecisionsMatchRecomputed) {
  AnalogAqm replaying(TestAnalogConfig());
  AnalogAqm recomputing(TestAnalogConfig());
  std::vector<AqmVerdict> replayed_verdicts;
  std::vector<double> replayed_pdps;
  RunBatchedDecisions(replaying, 10000, [&](AqmVerdict v) {
    replayed_verdicts.push_back(v);
    replayed_pdps.push_back(replaying.LastDropProbability());
  });
  std::vector<AqmVerdict> recomputed_verdicts;
  std::vector<double> recomputed_pdps;
  RunBatchedDecisions(recomputing, 10000, [&](AqmVerdict v) {
    recomputed_verdicts.push_back(v);
    recomputed_pdps.push_back(recomputing.LastDropProbability());
    recomputing.table().pipeline().cell(0);  // drops the memo
  });
  EXPECT_GT(replaying.table().pipeline().replays(), 1000u);
  EXPECT_EQ(recomputing.table().pipeline().replays(), 0u);
  EXPECT_EQ(replayed_verdicts, recomputed_verdicts);
  EXPECT_EQ(replayed_pdps, recomputed_pdps);
  for (const auto& [name, total] : recomputing.ledger().categories()) {
    EXPECT_EQ(replaying.ledger().Of(name).energy_j, total.energy_j) << name;
    EXPECT_EQ(replaying.ledger().Of(name).operations, total.operations)
        << name;
  }
}

// What one decision leaves on every counter the replay must advance:
// the ledger categories, each pCAM cell and the pipeline.
struct DecisionCounters {
  std::vector<double> category_j;
  std::vector<std::uint64_t> category_ops;
  std::vector<double> cell_j;
  std::vector<std::uint64_t> cell_searches;
  double pipeline_j = 0.0;
  std::uint64_t evaluations = 0;
  std::uint64_t replays = 0;
};

DecisionCounters CountersOf(const AnalogAqm& aqm) {
  DecisionCounters c;
  for (const auto& [name, total] : aqm.ledger().categories()) {
    c.category_j.push_back(total.energy_j);
    c.category_ops.push_back(total.operations);
  }
  const core::PcamPipeline& pipeline = aqm.table().pipeline();
  for (std::size_t i = 0; i < pipeline.stage_count(); ++i) {
    c.cell_j.push_back(pipeline.cell(i).ConsumedSearchEnergyJ());
    c.cell_searches.push_back(pipeline.cell(i).searches());
  }
  c.pipeline_j = pipeline.ConsumedEnergyJ();
  c.evaluations = pipeline.evaluations();
  c.replays = pipeline.replays();
  return c;
}

// `first` added `k` times in order, as k real decisions accumulate it.
double Repeated(double first, int k) {
  double total = 0.0;
  for (int i = 0; i < k; ++i) total += first;
  return total;
}

// A decision in the delay band (PDP strictly between 0 and 1), so each
// Bernoulli draw matters.
AqmContext BandContext() { return MakeContext(0.5, 0.022, 30, 30000); }

// k identical contexts: the first decision runs the full path, the other
// k - 1 replay it, and every counter reads exactly what k full decisions
// would leave: the first decision's increments added k times in order.
TEST(AnalogAqmTest, IdenticalContextsRepeatTheFirstDecisionsIncrements) {
  constexpr int kDecisions = 16;
  AnalogAqm aqm(TestAnalogConfig());
  AnalogAqm recomputing(TestAnalogConfig());
  EXPECT_EQ(aqm.DecideOnEnqueue(BandContext()),
            recomputing.DecideOnEnqueue(BandContext()));
  const DecisionCounters first = CountersOf(aqm);
  const double first_pdp = aqm.LastDropProbability();
  ASSERT_GT(first_pdp, 0.0);
  ASSERT_LT(first_pdp, 1.0);
  ASSERT_EQ(first.evaluations, 1u);
  ASSERT_EQ(first.replays, 0u);
  int drops = 0;
  for (int i = 1; i < kDecisions; ++i) {
    const AqmVerdict verdict = aqm.DecideOnEnqueue(BandContext());
    EXPECT_EQ(aqm.LastDropProbability(), first_pdp);
    recomputing.table().pipeline().cell(0);  // drops every memo
    EXPECT_EQ(recomputing.DecideOnEnqueue(BandContext()), verdict);
    if (verdict == AqmVerdict::kDrop) ++drops;
  }
  EXPECT_GT(drops, 0);
  EXPECT_LT(drops, kDecisions - 1);

  const DecisionCounters after = CountersOf(aqm);
  ASSERT_EQ(after.category_j.size(), 3u);
  for (std::size_t c = 0; c < first.category_j.size(); ++c) {
    EXPECT_EQ(after.category_j[c], Repeated(first.category_j[c], kDecisions))
        << c;
    EXPECT_EQ(after.category_ops[c], first.category_ops[c] * kDecisions)
        << c;
  }
  for (std::size_t i = 0; i < first.cell_j.size(); ++i) {
    EXPECT_EQ(after.cell_j[i], Repeated(first.cell_j[i], kDecisions)) << i;
    EXPECT_EQ(after.cell_searches[i], first.cell_searches[i] * kDecisions)
        << i;
  }
  EXPECT_EQ(after.pipeline_j, Repeated(first.pipeline_j, kDecisions));
  EXPECT_EQ(after.evaluations, static_cast<std::uint64_t>(kDecisions));
  EXPECT_EQ(after.replays, static_cast<std::uint64_t>(kDecisions - 1));
  EXPECT_EQ(recomputing.table().pipeline().replays(), 0u);
  EXPECT_EQ(aqm.ledger().TotalJ(), recomputing.ledger().TotalJ());
}

// The PDP a full-path decision on BandContext() computes on `aqm`'s
// current cells: the derivative chains of the second of two coincident
// samples hold zero derivatives, and the AQM normalises occupancy by
// 150 000 B.
double RecomputedBandPdp(AnalogAqm& aqm) {
  const AqmContext ctx = BandContext();
  return aqm.EvaluatePdp(aqm.FeaturesToVoltages(
      {ctx.sojourn_s, 0.0, 0.0, 0.0},
      {static_cast<double>(ctx.queue_bytes) / 150000.0, 0.0, 0.0, 0.0}));
}

// update_pCAM between two identical contexts: the second decision
// searches the new program.
TEST(AnalogAqmTest, ProgramBandBetweenIdenticalContextsForcesRecompute) {
  AnalogAqm aqm(TestAnalogConfig());
  aqm.DecideOnEnqueue(BandContext());
  const double before = aqm.LastDropProbability();
  ASSERT_TRUE(aqm.ProgramBand(0.005, 0.025));
  aqm.DecideOnEnqueue(BandContext());
  EXPECT_EQ(aqm.table().pipeline().replays(), 0u);

  AnalogAqm expected(TestAnalogConfig());
  ASSERT_TRUE(expected.ProgramBand(0.005, 0.025));
  const double expected_pdp = RecomputedBandPdp(expected);
  EXPECT_NE(expected_pdp, before);
  EXPECT_EQ(aqm.LastDropProbability(), expected_pdp);
}

// Aging the cells (through the mutable cell() accessor) between two
// identical contexts: the second decision searches the relaxed states.
TEST(AnalogAqmTest, AgingBetweenIdenticalContextsForcesRecompute) {
  AnalogAqmConfig config = TestAnalogConfig();
  config.hardware.device.retention_time_constant_s = 50.0;
  auto age = [](AnalogAqm& aqm) {
    core::PcamPipeline& pipeline = aqm.table().pipeline();
    for (std::size_t i = 0; i < pipeline.stage_count(); ++i) {
      pipeline.cell(i).Age(30.0);
    }
  };
  AnalogAqm aqm(config);
  aqm.DecideOnEnqueue(BandContext());
  const double before = aqm.LastDropProbability();
  const double first_search_j = aqm.ledger().Of("pcam.search").energy_j;
  age(aqm);
  aqm.DecideOnEnqueue(BandContext());
  EXPECT_EQ(aqm.table().pipeline().replays(), 0u);

  AnalogAqm expected(config);
  age(expected);
  const double expected_pdp = RecomputedBandPdp(expected);
  EXPECT_NE(expected_pdp, before);
  EXPECT_EQ(aqm.LastDropProbability(), expected_pdp);
  EXPECT_EQ(aqm.ledger().Of("pcam.search").energy_j,
            first_search_j + expected.ledger().Of("pcam.search").energy_j);
}

// The Fig. 7 sweep API between two identical contexts leaves the
// pipeline holding other voltages, with their search energies: the
// second decision must search its own voltages again.
TEST(AnalogAqmTest, EvaluatePdpBetweenIdenticalContextsForcesRecompute) {
  AnalogAqm aqm(TestAnalogConfig());
  AnalogAqm sweep_only(TestAnalogConfig());
  const std::vector<double> other =
      aqm.FeaturesToVoltages({0.030, 0.5, 0.0, 0.0}, {0.9, 0.2, 0.0, 0.0});
  aqm.DecideOnEnqueue(BandContext());
  const double first_pdp = aqm.LastDropProbability();
  const double first_search_j = aqm.ledger().Of("pcam.search").energy_j;
  const double other_pdp = aqm.EvaluatePdp(other);
  EXPECT_NE(other_pdp, first_pdp);
  sweep_only.EvaluatePdp(other);
  const double other_search_j =
      sweep_only.ledger().Of("pcam.search").energy_j;
  ASSERT_NE(other_search_j, first_search_j);

  aqm.DecideOnEnqueue(BandContext());
  EXPECT_EQ(aqm.table().pipeline().replays(), 0u);
  EXPECT_EQ(aqm.LastDropProbability(), first_pdp);
  EXPECT_EQ(aqm.ledger().Of("pcam.search").energy_j,
            first_search_j + other_search_j + first_search_j);
}

// Noisy DACs and noisy search lines draw noise on every decision, so
// identical contexts never replay and their PDPs vary.
TEST(AnalogAqmTest, NoisyDacsOrChannelsNeverReplay) {
  AnalogAqmConfig noisy_dacs = TestAnalogConfig();
  noisy_dacs.dac_inl_sigma_lsb = 0.5;
  AnalogAqmConfig noisy_channel = TestAnalogConfig();
  noisy_channel.hardware.channel = analog::ChannelParams::Noisy(0.05);
  for (const AnalogAqmConfig& config : {noisy_dacs, noisy_channel}) {
    AnalogAqm aqm(config);
    std::vector<double> pdps;
    for (int i = 0; i < 16; ++i) {
      aqm.DecideOnEnqueue(BandContext());
      pdps.push_back(aqm.LastDropProbability());
    }
    EXPECT_EQ(aqm.table().pipeline().replays(), 0u);
    EXPECT_EQ(aqm.table().pipeline().evaluations(), 16u);
    std::sort(pdps.begin(), pdps.end());
    EXPECT_GT(std::unique(pdps.begin(), pdps.end()) - pdps.begin(), 8);
  }
}

// ---------------------------------------------------------- controller

TEST(AqmControllerTest, SustainedHighDelayTightensThresholds) {
  AnalogAqm aqm(TestAnalogConfig());
  CognitiveAqmController controller(aqm);
  for (int i = 0; i < 5000; ++i) {
    controller.ObserveDeparture(0.001 * i, 0.045);  // way above 20 ms
  }
  EXPECT_GT(controller.adaptations(), 0u);
  EXPECT_LT(controller.current_scale(), 1.0);
}

TEST(AqmControllerTest, SustainedLowDelayRelaxesThresholds) {
  AnalogAqm aqm(TestAnalogConfig());
  CognitiveAqmController controller(aqm);
  for (int i = 0; i < 5000; ++i) {
    controller.ObserveDeparture(0.001 * i, 0.004);  // way below 20 ms
  }
  EXPECT_GT(controller.adaptations(), 0u);
  EXPECT_GT(controller.current_scale(), 1.0);
}

TEST(AqmControllerTest, DeadBandSuppressesAdaptation) {
  AnalogAqm aqm(TestAnalogConfig());
  CognitiveAqmController controller(aqm);
  for (int i = 0; i < 5000; ++i) {
    controller.ObserveDeparture(0.001 * i, 0.0205);  // within 10% band
  }
  EXPECT_EQ(controller.adaptations(), 0u);
  EXPECT_EQ(controller.current_scale(), 1.0);
}

TEST(AqmControllerTest, AdaptationChangesPdp) {
  AnalogAqm aqm(TestAnalogConfig());
  const std::vector<double> features =
      aqm.FeaturesToVoltages({0.014, 0.0, 0.0, 0.0}, {0.1, 0.0, 0.0, 0.0});
  const double before = aqm.EvaluatePdp(features);
  CognitiveAqmController controller(aqm);
  for (int i = 0; i < 5000; ++i) {
    controller.ObserveDeparture(0.001 * i, 0.045);
  }
  // Tightened thresholds: same 14 ms sojourn now maps to a higher PDP.
  EXPECT_GT(aqm.EvaluatePdp(features), before);
}


// ----------------------------------------------------------------- ECN

TEST(AnalogAqmEcnTest, MarksInsteadOfDroppingEctTraffic) {
  AnalogAqmConfig c = TestAnalogConfig();
  c.ecn_enabled = true;
  AnalogAqm aqm(c);
  int marks = 0;
  int drops = 0;
  for (int i = 0; i < 2000; ++i) {
    AqmContext ctx = MakeContext(0.001 * i, 0.025, 25);  // mid-ramp
    ctx.packet.ecn_capable = true;
    switch (aqm.DecideOnEnqueue(ctx)) {
      case AqmVerdict::kMark:
        ++marks;
        break;
      case AqmVerdict::kDrop:
        ++drops;
        break;
      default:
        break;
    }
  }
  EXPECT_GT(marks, 200);
  EXPECT_EQ(drops, 0);  // PDP stays below the 0.85 drop threshold
}

TEST(AnalogAqmEcnTest, SevereCongestionDropsEvenEct) {
  AnalogAqmConfig c = TestAnalogConfig();
  c.ecn_enabled = true;
  AnalogAqm aqm(c);
  int drops = 0;
  for (int i = 0; i < 1000; ++i) {
    AqmContext ctx = MakeContext(0.001 * i, 0.090, 200);  // saturated
    ctx.packet.ecn_capable = true;
    if (aqm.DecideOnEnqueue(ctx) == AqmVerdict::kDrop) ++drops;
  }
  EXPECT_GT(drops, 800);
}

TEST(AnalogAqmEcnTest, NonEctTrafficStillDrops) {
  AnalogAqmConfig c = TestAnalogConfig();
  c.ecn_enabled = true;
  AnalogAqm aqm(c);
  int marks = 0;
  int drops = 0;
  for (int i = 0; i < 2000; ++i) {
    AqmContext ctx = MakeContext(0.001 * i, 0.025, 25);
    ctx.packet.ecn_capable = false;
    switch (aqm.DecideOnEnqueue(ctx)) {
      case AqmVerdict::kMark:
        ++marks;
        break;
      case AqmVerdict::kDrop:
        ++drops;
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(marks, 0);
  EXPECT_GT(drops, 200);
}

TEST(AnalogAqmEcnTest, EcnDisabledNeverMarks) {
  AnalogAqmConfig c = TestAnalogConfig();
  AnalogAqm aqm(c);
  for (int i = 0; i < 500; ++i) {
    AqmContext ctx = MakeContext(0.001 * i, 0.025, 25);
    ctx.packet.ecn_capable = true;
    EXPECT_NE(aqm.DecideOnEnqueue(ctx), AqmVerdict::kMark);
  }
}

TEST(AqmVerdictTest, DefaultAdapterMapsDropDecision) {
  // A drop-only policy answers the admission hook with kDrop or
  // kAccept; the default hook accepts.
  const RedConfig saturating{.min_threshold_pkts = 0.0,
                             .max_threshold_pkts = 1.0,
                             .max_p = 1.0,
                             .queue_weight = 1.0};
  Red red(saturating, 3);
  EXPECT_EQ(red.DecideOnEnqueue(MakeContext(0.0, 0.0, 100)),
            AqmVerdict::kDrop);
  TailDropOnly taildrop;
  EXPECT_EQ(taildrop.DecideOnEnqueue(MakeContext(0.0, 0.0, 100)),
            AqmVerdict::kAccept);

  // Guarding a queue, the drop is counted as an AQM drop, not enqueued.
  Red guard(saturating, 3);
  AqmQueue queue({}, guard);
  net::PacketMeta meta;
  meta.size_bytes = 1000;
  EXPECT_EQ(queue.Offer(meta, 0.0), Admission::kEnqueued);  // empty queue
  EXPECT_EQ(queue.Offer(meta, 0.0), Admission::kAqmDropped);
  EXPECT_EQ(queue.queue().packets(), 1u);
  EXPECT_EQ(queue.queue().stats().dropped_aqm, 1u);
  EXPECT_EQ(queue.queue().stats().dropped_full, 0u);
}


// Property: across random contexts the analog AQM's PDP is always a
// valid probability and the energy account never decreases.
class AnalogAqmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AnalogAqmFuzz, PdpAlwaysValidEnergyMonotone) {
  analognf::RandomStream rng(GetParam());
  AnalogAqmConfig c = TestAnalogConfig();
  c.hardware.channel = analog::ChannelParams::Noisy(0.05);
  c.ecn_enabled = rng.NextBernoulli(0.5);
  AnalogAqm aqm(c);
  double now = 0.0;
  double last_energy = 0.0;
  for (int i = 0; i < 1000; ++i) {
    now += 0.01 * rng.NextUniform();
    AqmContext ctx = MakeContext(
        now, 0.2 * rng.NextUniform(),
        rng.NextIndex(500),
        rng.NextIndex(500000) + 1,
        static_cast<std::uint8_t>(rng.NextIndex(8)));
    ctx.packet.ecn_capable = rng.NextBernoulli(0.5);
    aqm.DecideOnEnqueue(ctx);
    EXPECT_GE(aqm.LastDropProbability(), 0.0);
    EXPECT_LE(aqm.LastDropProbability(), 1.0);
    EXPECT_GE(aqm.ConsumedEnergyJ(), last_energy);
    last_energy = aqm.ConsumedEnergyJ();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalogAqmFuzz,
                         ::testing::Values(31, 32, 33, 34));


TEST(AnalogAqmTest, DerivativeStagesCostEnergy) {
  AnalogAqm aqm(TestAnalogConfig());
  Drops(aqm, MakeContext(0.001, 0.010, 10, 10000));
  EXPECT_GT(aqm.ledger().Of("analog.derivative").energy_j, 0.0);
  EXPECT_GT(aqm.ledger().Of("analog.derivative").operations, 0u);
}


// ---------------------------------------------------------------- WRED

RedConfig HighProfile() {
  RedConfig c;
  c.min_threshold_pkts = 10.0;
  c.max_threshold_pkts = 30.0;
  c.max_p = 0.05;
  c.queue_weight = 1.0;
  return c;
}

RedConfig LowProfile() {
  RedConfig c;
  c.min_threshold_pkts = 3.0;
  c.max_threshold_pkts = 12.0;
  c.max_p = 0.3;
  c.queue_weight = 1.0;
  return c;
}

TEST(WredTest, HighPriorityDropsLess) {
  Wred wred(HighProfile(), LowProfile(), 11);
  int high_drops = 0;
  int low_drops = 0;
  for (int i = 0; i < 10000; ++i) {
    // Average queue sits at 11: above low's min (3) and just above
    // high's min (10).
    if (Drops(wred, MakeContext(0.001 * i, 0.0, 11, 11000, /*priority=*/7))) {
      ++high_drops;
    }
    if (Drops(wred, MakeContext(0.001 * i, 0.0, 11, 11000, /*priority=*/0))) {
      ++low_drops;
    }
  }
  EXPECT_LT(high_drops * 5, low_drops);
  EXPECT_GT(low_drops, 500);
}

TEST(WredTest, NoDropsBelowBothThresholds) {
  Wred wred(HighProfile(), LowProfile(), 12);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(Drops(wred, MakeContext(0.001 * i, 0.0, 2, 2000, 0)));
  }
}

TEST(WredTest, SaturationDropsEverything) {
  Wred wred(HighProfile(), LowProfile(), 13);
  EXPECT_TRUE(Drops(wred, MakeContext(0.0, 0.0, 100, 0, 0)));
  EXPECT_EQ(wred.LastDropProbability(), 1.0);
}

TEST(WredTest, ValidatesProfiles) {
  RedConfig bad = HighProfile();
  bad.max_p = 0.0;
  EXPECT_THROW(Wred(bad, LowProfile(), 1), std::invalid_argument);
  EXPECT_THROW(Wred(HighProfile(), bad, 1), std::invalid_argument);
}


// Fuzz: the digital policies never emit out-of-range probabilities and
// never throw on any queue state.
class DigitalAqmFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DigitalAqmFuzz, PoliciesAreTotalFunctions) {
  analognf::RandomStream rng(GetParam());
  Red red(RedConfig{}, GetParam());
  Pie pie(PieConfig{}, GetParam());
  Codel codel;
  aqm::RedConfig high;
  high.min_threshold_pkts = 10.0;
  high.max_threshold_pkts = 30.0;
  Wred wred(high, RedConfig{}, GetParam());
  double now = 0.0;
  for (int i = 0; i < 2000; ++i) {
    now += 0.02 * rng.NextUniform();
    AqmContext ctx = MakeContext(
        now, rng.NextUniform(), rng.NextIndex(2000),
        rng.NextIndex(2000000) + 1,
        static_cast<std::uint8_t>(rng.NextIndex(8)));
    Drops(red, ctx);
    Drops(pie, ctx);
    Drops(wred, ctx);
    codel.ShouldDropOnDequeue(ctx);
    for (double p : {red.LastDropProbability(), pie.LastDropProbability(),
                     wred.LastDropProbability()}) {
      EXPECT_GE(p, 0.0);
      EXPECT_LE(p, 1.0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DigitalAqmFuzz,
                         ::testing::Values(71, 72, 73));

}  // namespace
}  // namespace analognf::aqm
