// Analog traffic analysis: the "traffic analysis" cognitive function of
// Fig. 5 running end to end.
//
// Synthetic VoIP, bulk-transfer and bursty-video flows are generated,
// tracked online per flow (mean packet size, inter-arrival time,
// burstiness), and classified by a single pCAM table search per flow.
// The analog match degree doubles as the classification confidence.
#include <cstdint>
#include <cstdio>
#include <map>
#include <vector>

#include "analognf/cognitive/classifier.hpp"
#include "analognf/net/generator.hpp"

using namespace analognf;

int main() {
  // --- The cognitive function ------------------------------------------
  cognitive::FlowTracker tracker;
  core::HardwarePcamConfig hw;
  hw.state_levels = 1024;
  cognitive::AnalogTrafficClassifier classifier(hw);
  classifier.AddClass({"voip", 40, 240, 0.008, 0.040, 0.0, 0.6});
  classifier.AddClass({"bulk", 1000, 1600, 0.00005, 0.004, 0.0, 1.4});
  classifier.AddClass({"video", 700, 1600, 0.0005, 0.040, 1.2, 4.0});

  // --- Ground-truth traffic mix ----------------------------------------
  // Every flow sends up to 1500 packets; the tracker observes ~30 s.
  std::map<std::uint64_t, const char*> truth;
  auto observe = [&](const char* label, const net::PacketMeta& p) {
    if (p.arrival_time_s > 30.0) return false;
    truth[p.flow_hash] = label;
    tracker.Observe(p);
    return true;
  };
  // Constant-bit-rate flows: four VoIP-like (160-byte frames every
  // 20 ms) and three bulk (1500-byte segments, steady 800 pps).
  struct CbrFlow {
    const char* truth;
    double rate_pps;
    std::uint32_t size_bytes;
    std::uint64_t flow_hash;
  };
  std::vector<CbrFlow> cbr;
  for (std::uint64_t i = 0; i < 4; ++i) {
    cbr.push_back({"voip", 50.0, 160, 0x100 + i});
  }
  for (std::uint64_t i = 0; i < 3; ++i) {
    cbr.push_back({"bulk", 800.0, 1500, 0x200 + i});
  }
  for (const CbrFlow& flow : cbr) {
    net::PacketMeta p;
    p.size_bytes = flow.size_bytes;
    p.flow_hash = flow.flow_hash;
    for (int i = 0; i < 1500; ++i) {
      p.id = static_cast<std::uint64_t>(i);
      p.arrival_time_s += 1.0 / flow.rate_pps;
      if (!observe(flow.truth, p)) break;
    }
  }
  // Three bursty video flows (MMPP, one flow each).
  for (std::uint64_t i = 0; i < 3; ++i) {
    net::MetaSourceConfig mc;
    mc.arrivals.process = net::ArrivalConfig::Process::kMmpp;
    mc.arrivals.rate_pps = 30.0;
    mc.arrivals.burst_factor = 900.0 / 30.0;
    mc.arrivals.mean_calm_dwell_s = 0.2;
    mc.arrivals.mean_burst_dwell_s = 0.05;
    mc.flows = 1;
    mc.size_bytes = 1200;
    net::MetaSource video(mc, /*seed=*/900 + i);
    for (int k = 0; k < 1500; ++k) {
      if (!observe("video", video.Next())) break;
    }
  }

  // Classify every tracked flow.
  std::printf("%-10s %-10s %-10s %-12s %-12s %-10s\n", "flow", "truth",
              "class", "size (B)", "iat (ms)", "confidence");
  int correct = 0;
  int total = 0;
  for (const auto& [flow, label] : truth) {
    const cognitive::FlowFeatures f = tracker.Features(flow);
    const auto result = classifier.Classify(f, 0.05);
    ++total;
    const bool ok = result.has_value() && result->label == label;
    if (ok) ++correct;
    std::printf("%-10llx %-10s %-10s %-12.0f %-12.2f %-10s\n",
                static_cast<unsigned long long>(flow), label,
                result.has_value() ? result->label.c_str() : "(none)",
                f.mean_packet_size_bytes, f.mean_interarrival_s * 1000.0,
                result.has_value()
                    ? std::to_string(result->confidence).substr(0, 5).c_str()
                    : "-");
  }
  std::printf("\naccuracy: %d/%d flows\n", correct, total);
  std::printf("analog search energy for %d classifications: %.3g J\n",
              total, classifier.ConsumedEnergyJ());
  return correct == total ? 0 : 1;
}
