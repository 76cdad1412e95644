// Traffic generation: the one arrival model of the repository.
//
// Sec. 6 evaluates the analog AQM "by simulating the network queues with
// the Poisson distributed network flows". ArrivalProcess is that clock,
// plus the bursty MMPP and on-off variants (the 3rd-order derivative
// feature of Fig. 6 is only exercised by bursty traffic). It drives both
// the queueing experiments, through MetaSource, and the data-plane
// ingress, through traffic::TrafficSource.
#pragma once

#include <cstdint>
#include <vector>

#include "analognf/common/rng.hpp"

namespace analognf::net {

// Simulation-plane packet descriptor. The byte-accurate Packet is used
// by the parser path; the queueing experiments only need metadata.
struct PacketMeta {
  std::uint64_t id = 0;
  double arrival_time_s = 0.0;
  std::uint32_t size_bytes = 0;
  std::uint64_t flow_hash = 0;
  // 0 = best effort .. 7 = highest; maps onto the IPv4 DSCP class bits.
  std::uint8_t priority = 0;
  // ECN-capable transport (IP ECT codepoint): an AQM may mark instead
  // of dropping.
  bool ecn_capable = false;
  // Set by the AQM when it signals congestion on this packet (CE).
  bool ecn_marked = false;
};

// When packets arrive, in model time. All three processes produce
// strictly ordered, deterministic arrival sequences from a seed.
struct ArrivalConfig {
  enum class Process : std::uint8_t {
    kPoisson,  // memoryless arrivals at rate_pps
    kMmpp,     // two-state Markov-modulated Poisson (calm / burst)
    kOnOff,    // on-off source: Poisson bursts separated by silence
  };
  Process process = Process::kPoisson;
  double rate_pps = 1.0e6;
  // kMmpp: the burst state multiplies the rate; kOnOff: the on state
  // sends at rate_pps * burst_factor, the off state sends nothing.
  double burst_factor = 8.0;
  double mean_calm_dwell_s = 0.5;   // kMmpp calm / kOnOff off dwell
  double mean_burst_dwell_s = 0.05; // kMmpp burst / kOnOff on dwell

  void Validate() const;  // throws std::invalid_argument
};

// Stateful arrival clock over a caller-owned RandomStream: Next()
// returns the next strictly increasing arrival time in seconds.
class ArrivalProcess {
 public:
  // Validates `config`; the two-state processes draw their first dwell
  // from `rng`.
  ArrivalProcess(ArrivalConfig config, analognf::RandomStream& rng);

  double Next(analognf::RandomStream& rng);

  // Changes the base rate on the fly (the congestion phases of Fig. 8).
  // Throws std::invalid_argument unless the rate is finite and > 0.
  void SetRate(double rate_pps);
  double rate_pps() const { return config_.rate_pps; }
  bool in_burst() const { return in_burst_; }

 private:
  ArrivalConfig config_;
  double now_s_ = 0.0;
  double state_ends_s_ = 0.0;
  bool in_burst_ = false;
};

// Simple IMIX frame size: 64 B (7/12), 576 B (4/12), 1500 B (1/12).
std::uint32_t ImixBytes(analognf::RandomStream& rng);

// A quarter of a MetaSource's flows are high priority (priority 7 vs 0).
struct MetaSourceConfig {
  ArrivalConfig arrivals{};
  std::uint32_t flows = 8;
  // Fraction of flows that are ECN-capable transports.
  double ecn_capable_fraction = 0.0;
  std::uint32_t size_bytes = 1000;  // every packet the same size
};

// PacketMeta stream for the queueing experiments: arrivals from an
// ArrivalProcess across `flows` synthetic flows (flow chosen uniformly
// per packet; flow hash, priority and ECT are stable per flow).
class MetaSource {
 public:
  // Throws std::invalid_argument on a bad arrival config, zero flows, a
  // zero packet size or an ECN fraction outside [0, 1] (NaN included).
  MetaSource(MetaSourceConfig config, std::uint64_t seed);

  // Next arrival; arrival_time_s values are non-decreasing.
  PacketMeta Next();

  void SetRate(double rate_pps) { arrivals_.SetRate(rate_pps); }
  double rate_pps() const { return arrivals_.rate_pps(); }

 private:
  MetaSourceConfig config_;
  analognf::RandomStream rng_;  // arrival then flow draws, in that order
  ArrivalProcess arrivals_;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> flow_hashes_;
  std::vector<std::uint8_t> flow_priorities_;
  std::vector<bool> flow_ect_;
};

}  // namespace analognf::net
