// Tests for the cognitive (neuromorphic/self-learning) layer: crossbar
// perceptron, the learned AQM, and the analog traffic classifier.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>

#include "analognf/cognitive/classifier.hpp"
#include "analognf/cognitive/learned_aqm.hpp"
#include "analognf/cognitive/perceptron.hpp"
#include "analognf/net/generator.hpp"

#include "alloc_probe.hpp"

namespace analognf::cognitive {
namespace {

// ---------------------------------------------------------- perceptron

TEST(PerceptronConfigTest, Validation) {
  PerceptronConfig c;
  EXPECT_NO_THROW(c.Validate());
  c.inputs = 0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  c = PerceptronConfig{};
  c.learning_rate = 0.0;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
}

TEST(PerceptronTest, UntrainedOutputsHalf) {
  PerceptronConfig c;
  c.inputs = 3;
  CrossbarPerceptron p(c);
  // All weights ~0 (conductance floor residue is ~1e-12/1e-9 = 1e-3
  // weight units): output should be very close to 0.5.
  EXPECT_NEAR(p.Infer({0.5, 0.5, 0.5}), 0.5, 0.01);
}

TEST(PerceptronTest, InferRejectsArityMismatch) {
  PerceptronConfig c;
  c.inputs = 2;
  CrossbarPerceptron p(c);
  EXPECT_THROW(p.Infer({1.0}), std::invalid_argument);
  EXPECT_THROW(p.Train({1.0, 2.0}, 1.5), std::invalid_argument);
}

TEST(PerceptronTest, LearnsLinearlySeparableRule) {
  // Teach y = 1 iff x0 > 0.5 (x1 is noise).
  PerceptronConfig c;
  c.inputs = 2;
  c.learning_rate = 0.3;
  c.activation_gain = 2.0;
  CrossbarPerceptron p(c);
  analognf::RandomStream rng(3);
  for (int step = 0; step < 3000; ++step) {
    const double x0 = rng.NextUniform();
    const double x1 = rng.NextUniform();
    p.Train({x0, x1}, x0 > 0.5 ? 1.0 : 0.0);
  }
  EXPECT_GT(p.Infer({0.9, 0.5}), 0.7);
  EXPECT_LT(p.Infer({0.1, 0.5}), 0.3);
  EXPECT_EQ(p.updates(), 3000u);
}

TEST(PerceptronTest, LearnsRampRegression) {
  // Teach the AQM-style ramp y = clamp(x, 0, 1) on one input.
  PerceptronConfig c;
  c.inputs = 1;
  c.learning_rate = 0.2;
  c.activation_gain = 4.0;
  CrossbarPerceptron p(c);
  analognf::RandomStream rng(5);
  for (int step = 0; step < 5000; ++step) {
    const double x = rng.NextUniform();
    p.Train({x}, x);
  }
  // Mid-ramp accuracy.
  EXPECT_NEAR(p.Infer({0.5}), 0.5, 0.12);
  EXPECT_LT(p.Infer({0.05}), 0.35);
  EXPECT_GT(p.Infer({0.95}), 0.65);
}

TEST(PerceptronTest, WeightsAreClamped) {
  // The first step alone moves each weight by lr * 0.5 = 50, far past
  // the cap, so the clamp must hold them there.
  PerceptronConfig c;
  c.inputs = 1;
  c.learning_rate = 100.0;
  CrossbarPerceptron p(c);
  for (int i = 0; i < 200; ++i) p.Train({1.0}, 1.0);
  int at_cap = 0;
  for (double w : p.weights()) {
    EXPECT_LE(std::fabs(w), CrossbarPerceptron::kMaxWeight);
    if (std::fabs(w) == CrossbarPerceptron::kMaxWeight) ++at_cap;
  }
  EXPECT_GT(at_cap, 0);
}

TEST(PerceptronTest, TrainRejectsBadTarget) {
  PerceptronConfig c;
  c.inputs = 1;
  CrossbarPerceptron p(c);
  EXPECT_THROW(p.Train({0.5}, 1.5), std::invalid_argument);
  EXPECT_THROW(p.Train({0.5}, -0.1), std::invalid_argument);
}

TEST(PerceptronTest, InferenceConsumesAnalogEnergy) {
  PerceptronConfig c;
  c.inputs = 2;
  CrossbarPerceptron p(c);
  EXPECT_EQ(p.ConsumedEnergyJ(), 0.0);
  p.Infer({0.5, 0.5});
  EXPECT_GT(p.ConsumedEnergyJ(), 0.0);
}

// ---------------------------------------------------------- learned AQM

TEST(LearnedAqmTest, ConfigValidation) {
  LearnedAqmConfig c;
  EXPECT_NO_THROW(c.Validate());
  c.max_deviation_s = c.target_delay_s;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
  // Non-finite bounds would make the teacher PDP or the features NaN:
  // (s - inf) / (inf - inf).
  constexpr double kInf = std::numeric_limits<double>::infinity();
  c = LearnedAqmConfig{};
  c.target_delay_s = kInf;
  EXPECT_THROW(c.Validate(), std::invalid_argument);
}

TEST(LearnedAqmTest, TeacherIsTheProgrammedRamp) {
  LearnedAqm aqm(LearnedAqmConfig{});
  EXPECT_EQ(aqm.TeacherPdp(0.005), 0.0);
  EXPECT_NEAR(aqm.TeacherPdp(0.020), 0.5, 1e-12);
  EXPECT_EQ(aqm.TeacherPdp(0.050), 1.0);
}

TEST(LearnedAqmTest, ConvergesToTeacherUnderExperience) {
  LearnedAqm aqm(LearnedAqmConfig{});
  analognf::RandomStream rng(9);

  aqm::AqmContext ctx;
  ctx.packet.size_bytes = 1000;
  // Replay a few thousand decisions across the sojourn range.
  for (int i = 0; i < 6000; ++i) {
    ctx.now_s = 0.001 * i;
    ctx.sojourn_s = 0.05 * rng.NextUniform();
    ctx.queue_packets = 20;
    ctx.queue_bytes = 20000;
    aqm.DecideOnEnqueue(ctx);
  }
  // After convergence: low sojourn -> low PDP, high sojourn -> high PDP.
  int low_drops = 0;
  int high_drops = 0;
  for (int i = 0; i < 500; ++i) {
    ctx.now_s += 0.001;
    ctx.sojourn_s = 0.004;
    if (aqm.DecideOnEnqueue(ctx) == aqm::AqmVerdict::kDrop) ++low_drops;
    ctx.now_s += 0.001;
    ctx.sojourn_s = 0.045;
    if (aqm.DecideOnEnqueue(ctx) == aqm::AqmVerdict::kDrop) ++high_drops;
  }
  EXPECT_LT(low_drops, 200);
  EXPECT_GT(high_drops, 300);
}

TEST(LearnedAqmTest, ReportsPdpAndEnergy) {
  LearnedAqm aqm(LearnedAqmConfig{});
  aqm::AqmContext ctx;
  ctx.packet.size_bytes = 1000;
  ctx.now_s = 0.001;
  ctx.sojourn_s = 0.020;
  aqm.DecideOnEnqueue(ctx);
  EXPECT_GE(aqm.LastDropProbability(), 0.0);
  EXPECT_LE(aqm.LastDropProbability(), 1.0);
  EXPECT_GT(aqm.ConsumedEnergyJ(), 0.0);
  EXPECT_EQ(aqm.decisions(), 1u);
}

// A steady decision reuses the features, the crossbar's row voltages
// and its column currents: no call touches the allocator.
TEST(LearnedAqmTest, SteadyDecisionsAreAllocationFree) {
  LearnedAqm aqm(LearnedAqmConfig{});
  analognf::RandomStream rng(17);
  aqm::AqmContext ctx;
  ctx.packet.size_bytes = 1000;
  ctx.queue_packets = 20;
  ctx.queue_bytes = 20000;
  constexpr int kDecisions = 1000;
  int drops = 0;
  for (int i = 0; i < 2 * kDecisions; ++i) {
    ctx.now_s = 0.001 * i;
    ctx.sojourn_s = 0.05 * rng.NextUniform();
    if (i == kDecisions) {  // the first half warms up
      alloc_probe::count = 0;
      alloc_probe::counting = true;
    }
    if (aqm.DecideOnEnqueue(ctx) == aqm::AqmVerdict::kDrop) ++drops;
  }
  alloc_probe::counting = false;

  EXPECT_EQ(alloc_probe::count, 0u);
  EXPECT_EQ(aqm.decisions(), 2u * kDecisions);
  EXPECT_GT(drops, 0);
}

// ---------------------------------------------------------- classifier

TEST(FlowTrackerTest, TracksPerFlowFeatures) {
  FlowTracker tracker;
  net::PacketMeta p;
  p.flow_hash = 7;
  for (int i = 0; i < 100; ++i) {
    p.arrival_time_s = 0.010 * i;
    p.size_bytes = 200;
    tracker.Observe(p);
  }
  const FlowFeatures f = tracker.Features(7);
  EXPECT_EQ(f.packets, 100u);
  EXPECT_NEAR(f.mean_packet_size_bytes, 200.0, 1e-9);
  EXPECT_NEAR(f.mean_interarrival_s, 0.010, 1e-9);
  EXPECT_NEAR(f.burstiness, 0.0, 1e-9);  // CBR: zero CoV
  EXPECT_EQ(tracker.Features(999).packets, 0u);
}

TEST(FlowTrackerTest, PoissonFlowHasUnitBurstiness) {
  FlowTracker tracker;
  analognf::RandomStream rng(11);
  net::PacketMeta p;
  p.flow_hash = 1;
  double t = 0.0;
  for (int i = 0; i < 20000; ++i) {
    t += rng.NextExponential(1000.0);
    p.arrival_time_s = t;
    p.size_bytes = 100;
    tracker.Observe(p);
  }
  EXPECT_NEAR(tracker.Features(1).burstiness, 1.0, 0.05);
}

AnalogTrafficClassifier MakeClassifier() {
  core::HardwarePcamConfig hw;
  hw.state_levels = 1024;
  AnalogTrafficClassifier clf(hw);
  // VoIP: small packets, 10-30 ms spacing, smooth.
  clf.AddClass({"voip", 40, 240, 0.008, 0.040, 0.0, 0.6});
  // Bulk transfer: big packets, tight spacing.
  clf.AddClass({"bulk", 1000, 1600, 0.00005, 0.004, 0.0, 1.4});
  // Bursty video: large packets, bursty arrivals.
  clf.AddClass({"video", 700, 1600, 0.0005, 0.040, 1.2, 4.0});
  return clf;
}

TEST(ClassifierTest, ClassifiesPrototypeFlows) {
  AnalogTrafficClassifier clf = MakeClassifier();
  FlowFeatures voip;
  voip.mean_packet_size_bytes = 120;
  voip.mean_interarrival_s = 0.020;
  voip.burstiness = 0.2;
  auto result = clf.Classify(voip, 0.3);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->label, "voip");
  EXPECT_GT(result->confidence, 0.5);

  FlowFeatures bulk;
  bulk.mean_packet_size_bytes = 1450;
  bulk.mean_interarrival_s = 0.0008;
  bulk.burstiness = 0.9;
  result = clf.Classify(bulk, 0.3);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->label, "bulk");

  FlowFeatures video;
  video.mean_packet_size_bytes = 1200;
  video.mean_interarrival_s = 0.005;
  video.burstiness = 2.5;
  result = clf.Classify(video, 0.3);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->label, "video");
}

TEST(ClassifierTest, UnknownTrafficRejectedByConfidence) {
  AnalogTrafficClassifier clf = MakeClassifier();
  FlowFeatures weird;
  weird.mean_packet_size_bytes = 400;  // matches nothing well
  weird.mean_interarrival_s = 0.3;
  weird.burstiness = 4.5;
  EXPECT_FALSE(clf.Classify(weird, 0.5).has_value());
}

TEST(ClassifierTest, PartialMatchGivesGradedConfidence) {
  AnalogTrafficClassifier clf = MakeClassifier();
  // Slightly-too-large voip-like packets: on the skirt.
  FlowFeatures nearly;
  nearly.mean_packet_size_bytes = 300;
  nearly.mean_interarrival_s = 0.020;
  nearly.burstiness = 0.2;
  const auto result = clf.Classify(nearly, 0.05);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->label, "voip");
  EXPECT_LT(result->confidence, 0.95);
  EXPECT_GT(result->confidence, 0.05);
}

TEST(ClassifierTest, RejectsBadClassSpec) {
  AnalogTrafficClassifier clf;
  EXPECT_THROW(clf.AddClass({"bad", 100, 50, 0.001, 0.01, 0.0, 1.0}),
               std::invalid_argument);
}

TEST(ClassifierTest, EndToEndOverGeneratedTraffic) {
  // Feed real generator traffic through tracker + classifier.
  AnalogTrafficClassifier clf = MakeClassifier();
  FlowTracker tracker;
  // Constant bit rate: 160-byte frames every 20 ms.
  net::PacketMeta voip;
  voip.size_bytes = 160;
  voip.flow_hash = 0xb0;
  for (int i = 0; i < 500; ++i) {
    voip.id = static_cast<std::uint64_t>(i);
    voip.arrival_time_s += 1.0 / 50.0;
    tracker.Observe(voip);
  }
  const auto result = clf.Classify(tracker.Features(0xb0), 0.2);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->label, "voip");
}


TEST(ClassifierTest, ClassifyBatchMatchesSequential) {
  AnalogTrafficClassifier batched = MakeClassifier();
  AnalogTrafficClassifier sequential = MakeClassifier();
  std::vector<FlowFeatures> flows(3);
  flows[0].mean_packet_size_bytes = 120;
  flows[0].mean_interarrival_s = 0.020;
  flows[0].burstiness = 0.2;
  flows[1].mean_packet_size_bytes = 1450;
  flows[1].mean_interarrival_s = 0.0008;
  flows[1].burstiness = 0.9;
  flows[2].mean_packet_size_bytes = 400;  // matches nothing well
  flows[2].mean_interarrival_s = 0.3;
  flows[2].burstiness = 4.5;

  std::vector<ClassifyOutcome> batch;
  batched.ClassifyBatchInto(flows.data(), flows.size(), 0.3, batch);
  ASSERT_EQ(batch.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto one = sequential.Classify(flows[i], 0.3);
    ASSERT_EQ(batch[i].class_index >= 0, one.has_value());
    if (one.has_value()) {
      const auto index = static_cast<std::size_t>(batch[i].class_index);
      EXPECT_EQ(batched.label(index), one->label);
      EXPECT_EQ(index, one->class_index);
      EXPECT_NEAR(batch[i].confidence, one->confidence, 1e-12);
    }
  }
  EXPECT_GE(batch[0].class_index, 0);
  EXPECT_LT(batch[2].class_index, 0);
}

TEST(ClassifierTest, ClassifyBatchEmptyInput) {
  AnalogTrafficClassifier clf = MakeClassifier();
  std::vector<ClassifyOutcome> out(2);  // stale entries are cleared
  clf.ClassifyBatchInto(nullptr, 0, 0.0, out);
  EXPECT_TRUE(out.empty());
}

}  // namespace
}  // namespace analognf::cognitive
