// Tests for the discrete-event core and the single-queue simulation
// harness (the Fig. 8 experiment machinery).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <limits>
#include <memory>
#include <queue>
#include <vector>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/aqm/codel.hpp"
#include "analognf/aqm/pie.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/net/generator.hpp"
#include "analognf/sim/closed_loop.hpp"
#include "analognf/sim/event_queue.hpp"
#include "analognf/sim/queue_sim.hpp"

#include "alloc_probe.hpp"

namespace analognf::sim {
namespace {

// ----------------------------------------------------------- event queue

// Pops every event due by `t_end_s` and returns their kinds in pop order.
std::vector<std::uint32_t> Drain(EventQueue& events, double t_end_s) {
  std::vector<std::uint32_t> kinds;
  for (Event event; events.PopUntil(t_end_s, event);) {
    kinds.push_back(event.kind);
  }
  return kinds;
}

TEST(EventQueueTest, RunsInTimeOrder) {
  EventQueue events;
  events.Schedule(2.0, 2);
  events.Schedule(1.0, 1);
  events.Schedule(3.0, 3);
  EXPECT_EQ(Drain(events, 10.0), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(events.processed(), 3u);
  EXPECT_TRUE(events.empty());
}

TEST(EventQueueTest, TiesRunInScheduleOrder) {
  EventQueue events;
  for (std::uint32_t i = 0; i < 5; ++i) events.Schedule(1.0, 7, 10 * i);
  std::vector<std::uint64_t> args;
  for (Event event; events.PopUntil(1.0, event);) {
    EXPECT_EQ(event.kind, 7u);
    args.push_back(event.arg);
  }
  EXPECT_EQ(args, (std::vector<std::uint64_t>{0, 10, 20, 30, 40}));
}

TEST(EventQueueTest, NowAdvancesWithEvents) {
  EventQueue events;
  events.Schedule(5.0, 0);
  EXPECT_EQ(events.now(), 0.0);
  Event event;
  ASSERT_TRUE(events.PopUntil(10.0, event));
  EXPECT_EQ(event.time_s, 5.0);
  EXPECT_EQ(events.now(), 5.0);
}

TEST(EventQueueTest, SchedulingInPastThrows) {
  EventQueue events;
  events.Schedule(5.0, 0);
  Event event;
  ASSERT_TRUE(events.PopUntil(5.0, event));
  EXPECT_THROW(events.Schedule(1.0, 0), std::invalid_argument);
  EXPECT_THROW(events.ScheduleIn(-1.0, 0), std::invalid_argument);
  EXPECT_NO_THROW(events.Schedule(5.0, 0));  // "now" is not the past
}

TEST(EventQueueTest, EventsCanScheduleEvents) {
  EventQueue events;
  int fired = 0;
  events.Schedule(1.0, 0);
  for (Event event; events.PopUntil(10.0, event);) {
    ++fired;
    if (event.kind == 0) events.ScheduleIn(1.0, 1);
  }
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(events.now(), 10.0);
}

TEST(EventQueueTest, RunUntilStopsAtBoundary) {
  EventQueue events;
  events.Schedule(1.0, 1);
  events.Schedule(5.0, 5);
  EXPECT_EQ(Drain(events, 3.0), (std::vector<std::uint32_t>{1}));
  EXPECT_FALSE(events.empty());
  EXPECT_EQ(events.now(), 3.0);  // the clock is clamped to the boundary
  EXPECT_EQ(Drain(events, 10.0), (std::vector<std::uint32_t>{5}));
}

// Once the heap has grown to its working size, scheduling and popping
// never touch the allocator: events are plain records, nothing is
// captured or type-erased.
TEST(EventQueueTest, SteadyStateIsAllocationFree) {
  constexpr std::uint64_t kDepth = 64;
  EventQueue events;
  for (std::uint64_t i = 0; i < kDepth; ++i) events.Schedule(1.0, 0, i);
  EXPECT_EQ(Drain(events, 1.0).size(), kDepth);

  std::uint64_t popped = 0;
  alloc_probe::count = 0;
  alloc_probe::counting = true;
  for (std::uint64_t i = 0; i < kDepth; ++i) {
    events.ScheduleIn(static_cast<double>(i % 7), 1, i);
  }
  for (Event event; events.PopUntil(1.0e6, event);) {
    ++popped;
    if (event.arg + kDepth < 10 * kDepth) {  // ten events per chain
      events.ScheduleIn(static_cast<double>(event.arg % 5), 1,
                        event.arg + kDepth);
    }
  }
  alloc_probe::counting = false;

  EXPECT_EQ(popped, 10 * kDepth);
  EXPECT_EQ(alloc_probe::count, 0u);
}

// The lanes and the heap share one node pool: warming up with a laned
// kind only leaves room for the same depth of heap-only events.
TEST(EventQueueTest, LaneWarmedPoolServesTheHeap) {
  constexpr std::uint64_t kDepth = 64;
  constexpr std::uint32_t kHeapKind = EventQueue::kLaneKinds;
  EventQueue events;
  for (std::uint64_t i = 0; i < kDepth; ++i) events.ScheduleIn(1.0, 0, i);
  EXPECT_EQ(Drain(events, 1.0).size(), kDepth);

  std::uint64_t popped = 0;
  alloc_probe::count = 0;
  alloc_probe::counting = true;
  for (std::uint64_t i = 0; i < kDepth; ++i) {
    events.ScheduleIn(static_cast<double>(i % 7), kHeapKind, i);
  }
  for (Event event; events.PopUntil(1.0e6, event);) {
    ++popped;
    if (event.arg + kDepth < 10 * kDepth) {
      events.ScheduleIn(static_cast<double>(event.arg % 5), kHeapKind,
                        event.arg + kDepth);
    }
  }
  alloc_probe::counting = false;

  EXPECT_EQ(popped, 10 * kDepth);
  EXPECT_EQ(alloc_probe::count, 0u);
}

TEST(EventQueueTest, RejectsNonFiniteTimes) {
  EventQueue events;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const std::uint32_t kind : {0u, EventQueue::kLaneKinds}) {
    EXPECT_THROW(events.Schedule(nan, kind), std::invalid_argument);
    EXPECT_THROW(events.Schedule(kInf, kind), std::invalid_argument);
    EXPECT_THROW(events.ScheduleIn(nan, kind), std::invalid_argument);
    EXPECT_THROW(events.ScheduleIn(kInf, kind), std::invalid_argument);
  }
  EXPECT_TRUE(events.empty());
  events.Schedule(1.0, 0);
  Event event;
  ASSERT_TRUE(events.PopUntil(kInf, event));
  EXPECT_EQ(event.time_s, 1.0);
  EXPECT_FALSE(events.PopUntil(kInf, event));
}

// Differential check of the lanes-plus-heap calendar against a plain
// binary heap ordered by (time, seq): the same pops, in the same order,
// with the same clock, over a random mix of monotone kinds (fixed
// delays), non-monotone kinds (random delays), kinds at or above the
// lane bound, equal timestamps across kinds and PopUntil boundaries that
// fall on, between and past the pending events.
TEST(EventQueueTest, MatchesReferenceHeap) {
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time_s != b.time_s) return a.time_s > b.time_s;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Event, std::vector<Event>, Later> reference;
  double reference_now = 0.0;
  std::uint64_t next_seq = 0;

  EventQueue events;
  analognf::RandomStream rng(2718);
  constexpr std::uint32_t kKinds[] = {
      0, 1, 2, 3, EventQueue::kLaneKinds - 1, EventQueue::kLaneKinds,
      EventQueue::kLaneKinds + 3, 1000};
  // Times on a 1/8 grid, so that events of different kinds often tie.
  const auto on_grid = [](double t) { return std::ceil(t * 8.0) / 8.0; };
  std::uint64_t ops = 0;
  std::uint64_t pops = 0;
  while (ops < 200000) {
    const std::uint64_t draw = rng.NextIndex(100);
    if (draw < 55 || reference.empty()) {
      const std::uint32_t kind = kKinds[rng.NextIndex(std::size(kKinds))];
      double delay = 0.0;
      switch (kind) {
        case 0: delay = 0.5; break;               // monotone
        case 1: delay = 0.25; break;              // monotone
        case 2: delay = 2.0 * rng.NextUniform(); break;
        default: delay = on_grid(rng.NextUniform()); break;
      }
      const double time = rng.NextIndex(4) == 0 ? events.now()
                                                 : events.now() + delay;
      const std::uint64_t arg = ops;
      events.Schedule(time, kind, arg);
      reference.push({time, next_seq++, kind, arg});
    } else {
      // The boundary: at the next event, just before or after it, or far
      // past everything pending.
      const double next = reference.top().time_s;
      double t_end = next;
      switch (rng.NextIndex(4)) {
        case 0: t_end = next - 0.01; break;
        case 1: t_end = next + 0.5 * rng.NextUniform(); break;
        case 2: t_end = next + 10.0; break;
        default: break;
      }
      for (int burst = 1 + static_cast<int>(rng.NextIndex(8)); burst > 0;
           --burst) {
        Event got;
        const bool due = !reference.empty() &&
                         reference.top().time_s <= t_end;
        ASSERT_EQ(events.PopUntil(t_end, got), due) << "op " << ops;
        if (due) {
          const Event want = reference.top();
          reference.pop();
          reference_now = want.time_s;
          ASSERT_EQ(got.time_s, want.time_s) << "op " << ops;
          ASSERT_EQ(got.seq, want.seq) << "op " << ops;
          ASSERT_EQ(got.kind, want.kind) << "op " << ops;
          ASSERT_EQ(got.arg, want.arg) << "op " << ops;
          ++pops;
        } else {
          reference_now = std::max(reference_now, t_end);
        }
        ASSERT_EQ(events.now(), reference_now) << "op " << ops;
        ++ops;
      }
    }
    ASSERT_EQ(events.empty(), reference.empty()) << "op " << ops;
    ++ops;
  }
  EXPECT_EQ(events.processed(), pops);
  EXPECT_GT(pops, 40000u);
}

// ------------------------------------------------------------- sim config

TEST(QueueSimConfigTest, Validation) {
  QueueSimConfig c;
  EXPECT_NO_THROW(c.Validate());
  c.warmup_s = 30.0;  // >= duration
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = QueueSimConfig{};
  c.link_rate_bps = 0.0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = QueueSimConfig{};
  c.phases = {{2.0, 100.0}, {1.0, 100.0}};
  EXPECT_THROW(c.Validate(), std::invalid_argument);

  // Non-finite values: each is checked up front, never by a Run().
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::nan("");
  c = QueueSimConfig{};
  c.duration_s = inf;  // the arrival loop would never end
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = QueueSimConfig{};
  c.warmup_s = nan;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = QueueSimConfig{};
  c.warmup_s = -0.5;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = QueueSimConfig{};
  c.link_rate_bps = inf;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  for (const RatePhase bad : {RatePhase{inf, 100.0}, RatePhase{nan, 100.0},
                              RatePhase{1.0, 0.0}, RatePhase{1.0, -5.0},
                              RatePhase{1.0, inf}, RatePhase{1.0, nan}}) {
    c = QueueSimConfig{};
    c.phases = {{0.5, 100.0}, bad};
    EXPECT_THROW(c.Validate(), std::invalid_argument)
        << bad.start_s << " " << bad.rate_pps;
  }
  c = QueueSimConfig{};
  c.phases = {{0.5, 100.0}, {0.5, 2000.0}};  // equal starts are in order
  EXPECT_NO_THROW(c.Validate());
}

// A 10 Mb/s link serving 1000-byte packets handles 1250 pps.
QueueSimConfig ShortSim() {
  QueueSimConfig c;
  c.duration_s = 5.0;
  c.warmup_s = 1.0;
  c.link_rate_bps = 10.0e6;
  return c;
}

net::MetaSource MakePoisson(double rate_pps, std::uint64_t seed) {
  net::MetaSourceConfig c;
  c.arrivals.rate_pps = rate_pps;
  return net::MetaSource(c, seed);
}

// ------------------------------------------------------------- behaviour

TEST(QueueSimulatorTest, UnderloadHasTinyDelaysAndNoDrops) {
  net::MetaSource source = MakePoisson(500.0, 1);  // 40% load
  aqm::TailDropOnly policy;
  QueueSimulator sim(ShortSim(), source, policy);
  const SimReport report = sim.Run();
  EXPECT_EQ(report.queue_stats.dropped_full, 0u);
  EXPECT_EQ(report.queue_stats.dropped_aqm, 0u);
  EXPECT_LT(report.link.delay_stats.mean(), 0.005);
  EXPECT_GT(report.link.delivered_packets, 1000u);
}

TEST(QueueSimulatorTest, OverloadWithoutAqmGrowsUnbounded) {
  // The "without AQM" curve of Fig. 8: delays keep climbing.
  // 160% load, unbounded queue.
  net::MetaSource source = MakePoisson(2000.0, 2);
  aqm::TailDropOnly policy;
  QueueSimulator sim(ShortSim(), source, policy);
  const SimReport report = sim.Run();
  EXPECT_GT(report.link.delay_stats.max(), 0.5);
  // Delay at the end is far above delay early on.
  const auto& pts = report.link.delay.points();
  ASSERT_GT(pts.size(), 100u);
  EXPECT_GT(pts.back().value, 10.0 * pts[pts.size() / 10].value);
}

TEST(QueueSimulatorTest, AnalogAqmHoldsProgrammedBound) {
  // The headline Fig. 8 behaviour: 20 ms +/- 10 ms under 160% load.
  net::MetaSource source = MakePoisson(2000.0, 3);
  aqm::AnalogAqmConfig aqm_config;
  aqm::AnalogAqm policy(aqm_config);
  QueueSimulator sim(ShortSim(), source, policy);
  const SimReport report = sim.Run();
  EXPECT_GT(report.queue_stats.dropped_aqm, 100u);
  EXPECT_GT(report.link.delay_stats.mean(), 0.005);
  EXPECT_LT(report.link.delay_stats.mean(), 0.032);
  EXPECT_GT(report.link.DelayFractionWithin(0.0, 0.035), 0.9);
  EXPECT_GT(policy.ConsumedEnergyJ(), 0.0);
}

TEST(QueueSimulatorTest, ConservationLaw) {
  net::MetaSource source = MakePoisson(1500.0, 4);
  aqm::TailDropOnly policy;
  QueueSimConfig c = ShortSim();
  c.queue.max_packets = 20;
  QueueSimulator sim(c, source, policy);
  const SimReport report = sim.Run();
  // offered = delivered + tail drops + AQM drops + still queued at the
  // end (the packet in service included).
  EXPECT_EQ(report.link.dropped_packets, report.queue_stats.dropped_full +
                                             report.queue_stats.dropped_aqm);
  EXPECT_EQ(report.link.offered_packets,
            report.link.delivered_packets + report.link.dropped_packets +
                report.link.residual_packets);
  EXPECT_LE(report.link.residual_packets, 20u);  // the queue bound
}

TEST(QueueSimulatorTest, ThroughputBoundedByLink) {
  net::MetaSource source = MakePoisson(5000.0, 5);
  aqm::TailDropOnly policy;
  QueueSimConfig c = ShortSim();
  c.queue.max_packets = 50;
  QueueSimulator sim(c, source, policy);
  const SimReport report = sim.Run();
  EXPECT_LE(report.ThroughputBps(), 10.0e6 * 1.05);
  EXPECT_GT(report.ThroughputBps(), 10.0e6 * 0.8);
  EXPECT_GT(report.link.DropRate(), 0.3);
}

TEST(QueueSimulatorTest, CodelRunsAtDequeue) {
  // CoDel's sqrt control law shrinks the drop spacing slowly, so from a
  // sustained overload it converges over tens of seconds; assert the
  // behavioural property (head drops happen and delay is pulled far
  // below the uncontrolled baseline) rather than a settled setpoint.
  const auto run = [](aqm::AqmPolicy& policy) {
    net::MetaSource source = MakePoisson(1500.0, 6);
    QueueSimConfig c = ShortSim();
    c.duration_s = 12.0;
    QueueSimulator sim(c, source, policy);
    return sim.Run();
  };
  aqm::Codel codel;
  aqm::TailDropOnly taildrop;
  const SimReport with = run(codel);
  const SimReport without = run(taildrop);
  EXPECT_GT(with.queue_stats.dropped_aqm, 50u);
  EXPECT_LT(with.link.delay_stats.mean(),
            0.5 * without.link.delay_stats.mean());
}

TEST(QueueSimulatorTest, PhasesChangeOfferedLoad) {
  net::MetaSource source = MakePoisson(200.0, 7);
  aqm::TailDropOnly policy;
  QueueSimConfig c = ShortSim();
  c.phases = {{2.0, 3000.0}};  // congestion starts at t = 2 s
  QueueSimulator sim(c, source, policy);
  const SimReport report = sim.Run();
  // Delays before the phase flip stay tiny; after it they blow up.
  double early_max = 0.0;
  double late_max = 0.0;
  for (const auto& p : report.link.delay.points()) {
    if (p.time < 1.9) {
      early_max = std::max(early_max, p.value);
    } else {
      late_max = std::max(late_max, p.value);
    }
  }
  EXPECT_LT(early_max, 0.01);
  EXPECT_GT(late_max, 0.05);
}

TEST(QueueSimulatorTest, DropProbTraceRecordedForAnalog) {
  net::MetaSource source = MakePoisson(2000.0, 8);
  aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
  QueueSimulator sim(ShortSim(), source, policy);
  const SimReport report = sim.Run();
  EXPECT_GT(report.drop_prob.size(), 1000u);
  for (const auto& p : report.drop_prob.points()) {
    EXPECT_GE(p.value, 0.0);
    EXPECT_LE(p.value, 1.0);
  }
}

TEST(QueueSimulatorTest, QueueDepthSampled) {
  net::MetaSource source = MakePoisson(500.0, 9);
  aqm::TailDropOnly policy;
  QueueSimulator sim(ShortSim(), source, policy);
  const SimReport report = sim.Run();
  // 5 s at 20 ms sampling = ~250 samples.
  EXPECT_GT(report.queue_depth.size(), 200u);
}

TEST(QueueSimulatorTest, ControllerAdaptsDuringRun) {
  net::MetaSource source = MakePoisson(2000.0, 10);
  aqm::AnalogAqmConfig aqm_config;
  aqm::AnalogAqm policy(aqm_config);
  aqm::CognitiveAqmController controller(policy);
  QueueSimulator sim(ShortSim(), source, policy, &controller);
  sim.Run();
  // Under sustained overload the controller should have reprogrammed at
  // least once (or legitimately decided the delay is in band — accept
  // either, but the plumbing must have run).
  SUCCEED();
}

TEST(QueueSimulatorTest, DeterministicAcrossRuns) {
  const auto run_once = [] {
    net::MetaSource source = MakePoisson(1200.0, 11);
    aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
    QueueSimulator sim(ShortSim(), source, policy);
    return sim.Run();
  };
  const SimReport a = run_once();
  const SimReport b = run_once();
  EXPECT_EQ(a.link.delivered_packets, b.link.delivered_packets);
  EXPECT_EQ(a.queue_stats.dropped_aqm, b.queue_stats.dropped_aqm);
  EXPECT_EQ(a.link.delay_stats.mean(), b.link.delay_stats.mean());
}

// Priority handling end to end: high-priority flows should see a lower
// drop rate through the analog AQM.
TEST(QueueSimulatorTest, HighPriorityFlowsFavoured) {
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = 2500.0;
  mc.flows = 8;  // 2 high-priority flows, 6 best-effort ones
  net::MetaSource source(mc, 12);
  aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
  QueueSimConfig c = ShortSim();
  QueueSimulator sim(c, source, policy);
  const SimReport report = sim.Run();
  ASSERT_GT(report.delay_stats_high_priority.count(), 100u);
  ASSERT_GT(report.delay_stats_low_priority.count(), 100u);
  // More high-priority packets survive per offered packet; since every
  // flow offers the same rate, a high-priority flow delivers more than a
  // best-effort one (3x the 2 high flows' count exceeds the 6 others').
  EXPECT_GT(3 * report.delay_stats_high_priority.count(),
            report.delay_stats_low_priority.count());
}

// ------------------------------------------------------- ECN in the sim

TEST(QueueSimulatorTest, EcnMarksAreCountedAndDelivered) {
  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = 2000.0;
  mc.ecn_capable_fraction = 1.0;
  net::MetaSource source(mc, 41);
  aqm::AnalogAqmConfig ac;
  ac.ecn_enabled = true;
  aqm::AnalogAqm policy(ac);
  QueueSimulator sim(ShortSim(), source, policy);
  const SimReport report = sim.Run();
  EXPECT_GT(report.link.marked_packets, 100u);
  EXPECT_GT(report.delivered_marked_packets, 100u);
  // Every delivered mark was once an admitted mark.
  EXPECT_LE(report.delivered_marked_packets, report.link.marked_packets);
}

TEST(QueueSimulatorTest, NoMarksWithoutEcn) {
  net::MetaSource source = MakePoisson(2000.0, 42);
  aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
  QueueSimulator sim(ShortSim(), source, policy);
  const SimReport report = sim.Run();
  EXPECT_EQ(report.link.marked_packets, 0u);
}

// -------------------------------------------------------- closed loop

TEST(ClosedLoopConfigTest, Validation) {
  ClosedLoopConfig c;
  EXPECT_NO_THROW(c.Validate());
  c.sources = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = ClosedLoopConfig{};
  c.ecn_fraction = 1.5;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  // NaN would reach the size_t cast of the ECN source count.
  c = ClosedLoopConfig{};
  c.ecn_fraction = std::nan("");
  EXPECT_THROW(c.Validate(), std::invalid_argument);
}

ClosedLoopConfig SmallClosedLoop() {
  ClosedLoopConfig c;
  c.sources = 4;
  c.duration_s = 15.0;
  c.warmup_s = 5.0;
  c.link_rate_bps = 10.0e6;
  c.base_rtt_s = 0.040;
  return c;
}

TEST(ClosedLoopTest, AimdSourcesFillTheLink) {
  aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
  ClosedLoopSimulator sim(SmallClosedLoop(), policy);
  const ClosedLoopReport report = sim.Run();
  // AIMD should keep the bottleneck busy.
  EXPECT_GT(report.LinkUtilization(10.0e6, 1000), 0.7);
  EXPECT_GT(report.link.delivered_packets, 5000u);
}

TEST(ClosedLoopTest, AimdIsReasonablyFair) {
  aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
  ClosedLoopSimulator sim(SmallClosedLoop(), policy);
  const ClosedLoopReport report = sim.Run();
  EXPECT_GT(report.FairnessIndex(), 0.8);
}

TEST(ClosedLoopTest, AqmKeepsClosedLoopDelayLow) {
  // Against responsive traffic, the analog AQM holds queueing delay near
  // its programmed bound while tail-drop lets the queue fill.
  aqm::AnalogAqm analog_policy(aqm::AnalogAqmConfig{});
  ClosedLoopSimulator with_aqm(SmallClosedLoop(), analog_policy);
  const ClosedLoopReport aqm_report = with_aqm.Run();

  aqm::TailDropOnly taildrop;
  ClosedLoopConfig c = SmallClosedLoop();
  c.queue.max_packets = 200;  // deep buffer: the bufferbloat case
  ClosedLoopSimulator without(c, taildrop);
  const ClosedLoopReport taildrop_report = without.Run();

  EXPECT_LT(aqm_report.link.delay_stats.mean(),
            0.5 * taildrop_report.link.delay_stats.mean());
  EXPECT_LT(aqm_report.link.delay_stats.mean(), 0.035);
}

TEST(ClosedLoopTest, EcnShedsLoadWithFewerDrops) {
  // Same AQM program, ECN on vs off, all sources ECN-capable: marking
  // should replace most drops while holding comparable delay.
  const auto run = [](bool ecn) {
    aqm::AnalogAqmConfig ac;
    ac.ecn_enabled = ecn;
    aqm::AnalogAqm policy(ac);
    ClosedLoopConfig c = SmallClosedLoop();
    c.ecn_fraction = 1.0;
    ClosedLoopSimulator sim(c, policy);
    return sim.Run();
  };
  const ClosedLoopReport with_ecn = run(true);
  const ClosedLoopReport without_ecn = run(false);
  EXPECT_GT(with_ecn.link.marked_packets, 100u);
  EXPECT_LT(with_ecn.link.dropped_packets,
            without_ecn.link.dropped_packets / 2);
  EXPECT_LT(with_ecn.link.delay_stats.mean(), 0.05);
}

TEST(ClosedLoopTest, CwndRespondsToCongestionSignals) {
  aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
  ClosedLoopSimulator sim(SmallClosedLoop(), policy);
  const ClosedLoopReport report = sim.Run();
  // The aggregate window must neither collapse to the floor nor pin at
  // the cap: AIMD sawtooths in between.
  analognf::RunningStats cwnd;
  for (const auto& p : report.total_cwnd.points()) {
    if (p.time >= report.link.warmup_s) cwnd.Add(p.value);
  }
  EXPECT_GT(cwnd.mean(), 4.0 * 1.0);     // above all-at-min
  EXPECT_LT(cwnd.mean(), 4.0 * 256.0);   // below all-at-max
  EXPECT_GT(cwnd.stddev(), 0.1);         // actually oscillating
}

TEST(ClosedLoopTest, DeterministicAcrossRuns) {
  const auto run = [] {
    aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
    ClosedLoopConfig c = SmallClosedLoop();
    c.duration_s = 5.0;
    c.warmup_s = 1.0;
    ClosedLoopSimulator sim(c, policy);
    const ClosedLoopReport r = sim.Run();
    return std::make_pair(r.link.delivered_packets, r.link.dropped_packets);
  };
  EXPECT_EQ(run(), run());
}


// Stability: the Fig. 8 delay bound holds across independent seeds, not
// just the one the headline test uses.
class Fig8Stability : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Fig8Stability, BoundHoldsAcrossSeeds) {
  net::MetaSource source = MakePoisson(1900.0, GetParam());
  aqm::AnalogAqm policy(aqm::AnalogAqmConfig{});
  QueueSimConfig c = ShortSim();
  c.duration_s = 6.0;
  QueueSimulator sim(c, source, policy);
  const SimReport report = sim.Run();
  EXPECT_GT(report.link.DelayFractionWithin(0.0, 0.035), 0.9);
  EXPECT_LT(report.link.delay_stats.mean(), 0.032);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Fig8Stability,
                         ::testing::Values(101, 202, 303, 404, 505));

// Conservation holds in the closed-loop simulator too, across seeds.
class ClosedLoopConservation
    : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClosedLoopConservation, OfferedEqualsDeliveredPlusDropped) {
  // The parameter seeds the AQM's drop draws: the AIMD sources
  // themselves are deterministic.
  aqm::AnalogAqmConfig ac;
  ac.hardware.seed = GetParam();
  aqm::AnalogAqm policy(ac);
  ClosedLoopConfig c;
  c.sources = 4;
  c.duration_s = 6.0;
  c.warmup_s = 1.0;
  ClosedLoopSimulator sim(c, policy);
  const ClosedLoopReport r = sim.Run();
  // Every offered packet is delivered, dropped (AQM or tail) or still
  // queued at the end of the run.
  EXPECT_EQ(r.link.offered_packets, r.link.delivered_packets +
                                        r.link.dropped_packets +
                                        r.link.residual_packets);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosedLoopConservation,
                         ::testing::Values(1, 2, 3));

// ---------------------------------------------------- shared bottleneck

TEST(LinkReportTest, DelayFractionWithinCountsInclusiveBounds) {
  LinkReport link;
  link.warmup_s = 1.0;
  link.delay.Append(0.5, 2.5);  // before warmup: not counted
  for (double x : {1.0, 2.0, 3.0, 4.0}) link.delay.Append(1.0 + x, x);
  EXPECT_NEAR(link.DelayFractionWithin(2.0, 3.0), 0.5, 1e-12);
  EXPECT_NEAR(link.DelayFractionWithin(0.0, 10.0), 1.0, 1e-12);
  EXPECT_NEAR(link.DelayFractionWithin(5.0, 6.0), 0.0, 1e-12);
  EXPECT_EQ(LinkReport{}.DelayFractionWithin(0.0, 1.0), 0.0);
}

TEST(LinkReportTest, FairnessIndexIsJainsIndex) {
  LinkReport link;
  EXPECT_EQ(link.FairnessIndex(), 0.0);  // no flows
  link.delivered_by_flow = {{7, 0}, {9, 0}};
  EXPECT_EQ(link.FairnessIndex(), 0.0);  // nothing delivered
  link.delivered_by_flow = {{7, 10}, {9, 10}};
  EXPECT_NEAR(link.FairnessIndex(), 1.0, 1e-12);
  link.delivered_by_flow = {{7, 0}, {9, 10}};  // a starved flow counts
  EXPECT_NEAR(link.FairnessIndex(), 0.5, 1e-12);
  EXPECT_NEAR(link.FairnessIndex(4.0), 0.5, 1e-12);  // scale-free
}

enum class Guard { kTailDrop, kAnalogEcn, kCodel, kPie };

std::unique_ptr<aqm::AqmPolicy> MakeGuard(Guard guard) {
  switch (guard) {
    case Guard::kTailDrop:
      return std::make_unique<aqm::TailDropOnly>();
    case Guard::kAnalogEcn: {
      aqm::AnalogAqmConfig ac;
      ac.ecn_enabled = true;
      return std::make_unique<aqm::AnalogAqm>(ac);
    }
    case Guard::kCodel:
      return std::make_unique<aqm::Codel>();
    case Guard::kPie: {
      aqm::PieConfig pc;
      pc.drain_rate_bps = 10.0e6;
      return std::make_unique<aqm::Pie>(pc, 77);
    }
  }
  return nullptr;
}

// Both simulators account for every offered packet through the one
// bottleneck: delivered, dropped (at admission, at the head or by a full
// queue) or still queued at the end. Exact under a drop-only, a marking,
// a head-dropping and a probabilistic policy, ECN-capable traffic
// throughout.
TEST(BottleneckTest, ConservationIsExactOnBothSimulators) {
  for (Guard guard :
       {Guard::kTailDrop, Guard::kAnalogEcn, Guard::kCodel, Guard::kPie}) {
    SCOPED_TRACE(static_cast<int>(guard));
    std::vector<LinkReport> links;

    net::MetaSourceConfig mc;
    mc.arrivals.rate_pps = 2000.0;  // 160% load
    mc.ecn_capable_fraction = 1.0;
    net::MetaSource source(mc, 13);
    QueueSimConfig qc = ShortSim();
    qc.queue.max_packets = 60;
    std::unique_ptr<aqm::AqmPolicy> open_policy = MakeGuard(guard);
    links.push_back(QueueSimulator(qc, source, *open_policy).Run().link);

    ClosedLoopConfig cc = SmallClosedLoop();
    cc.ecn_fraction = 1.0;
    cc.queue.max_bytes = 40000;
    std::unique_ptr<aqm::AqmPolicy> closed_policy = MakeGuard(guard);
    links.push_back(ClosedLoopSimulator(cc, *closed_policy).Run().link);

    for (const LinkReport& link : links) {
      EXPECT_GT(link.delivered_packets, 1000u);
      EXPECT_EQ(link.offered_packets, link.delivered_packets +
                                          link.dropped_packets +
                                          link.residual_packets);
      if (guard == Guard::kAnalogEcn) {
        EXPECT_GT(link.marked_packets, 0u);
      } else {
        EXPECT_GT(link.dropped_packets, 0u);
        EXPECT_EQ(link.marked_packets, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace analognf::sim
