// Traffic generation for the queue-management experiments.
//
// Sec. 6 evaluates the analog AQM "by simulating the network queues with
// the Poisson distributed network flows". This module provides that
// Poisson workload plus the CBR and bursty (MMPP) generators used by the
// ablation benches (the 3rd-order derivative feature of Fig. 6 is only
// exercised by bursty traffic).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
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

// Packet-size models.
class SizeModel {
 public:
  virtual ~SizeModel() = default;
  virtual std::uint32_t Sample(analognf::RandomStream& rng) = 0;
};

// Every packet the same size.
class FixedSize final : public SizeModel {
 public:
  explicit FixedSize(std::uint32_t bytes);
  std::uint32_t Sample(analognf::RandomStream& rng) override;

 private:
  std::uint32_t bytes_;
};

// Simple IMIX: 64 B (7/12), 576 B (4/12), 1500 B (1/12).
class ImixSize final : public SizeModel {
 public:
  std::uint32_t Sample(analognf::RandomStream& rng) override;
};

// A generator yields a time-ordered stream of packet arrivals.
class TrafficGenerator {
 public:
  virtual ~TrafficGenerator() = default;
  // Next arrival; arrival_time_s values are non-decreasing.
  virtual PacketMeta Next() = 0;
  virtual std::string name() const = 0;
};

// Poisson arrivals at `rate_pps` across `flows` synthetic flows
// (flow chosen uniformly per packet; flow hash and priority are stable
// per flow). Matches the paper's evaluation workload.
class PoissonGenerator final : public TrafficGenerator {
 public:
  struct Config {
    double rate_pps = 1000.0;
    std::uint32_t flows = 8;
    // Fraction of flows marked high priority (priority 7 vs 0).
    double high_priority_fraction = 0.25;
    // Fraction of flows that are ECN-capable transports.
    double ecn_capable_fraction = 0.0;
  };

  PoissonGenerator(Config config, std::unique_ptr<SizeModel> sizes,
                   std::uint64_t seed);

  PacketMeta Next() override;
  std::string name() const override { return "poisson"; }

  // Changes the arrival rate on the fly (congestion phases in Fig. 8).
  void SetRate(double rate_pps);
  double rate_pps() const { return config_.rate_pps; }

 private:
  Config config_;
  std::unique_ptr<SizeModel> sizes_;
  analognf::RandomStream rng_;
  double now_s_ = 0.0;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> flow_hashes_;
  std::vector<std::uint8_t> flow_priorities_;
  std::vector<bool> flow_ect_;
};

// Constant bit rate: fixed inter-arrival interval.
class CbrGenerator final : public TrafficGenerator {
 public:
  CbrGenerator(double rate_pps, std::uint32_t size_bytes,
               std::uint64_t flow_hash = 0xcb5, std::uint8_t priority = 0);

  PacketMeta Next() override;
  std::string name() const override { return "cbr"; }

 private:
  double interval_s_;
  std::uint32_t size_bytes_;
  std::uint64_t flow_hash_;
  std::uint8_t priority_;
  double now_s_ = 0.0;
  std::uint64_t next_id_ = 0;
};

// Two-state Markov-modulated Poisson process: a calm state and a burst
// state with different rates; dwell times are exponential. Produces the
// bursty periods the 3rd-order derivative feature is meant to detect.
class MmppGenerator final : public TrafficGenerator {
 public:
  struct Config {
    double calm_rate_pps = 500.0;
    double burst_rate_pps = 5000.0;
    double mean_calm_dwell_s = 0.5;
    double mean_burst_dwell_s = 0.05;
    std::uint32_t flows = 8;
    double high_priority_fraction = 0.25;
    double ecn_capable_fraction = 0.0;
  };

  MmppGenerator(Config config, std::unique_ptr<SizeModel> sizes,
                std::uint64_t seed);

  PacketMeta Next() override;
  std::string name() const override { return "mmpp"; }
  bool in_burst() const { return in_burst_; }

 private:
  Config config_;
  std::unique_ptr<SizeModel> sizes_;
  analognf::RandomStream rng_;
  double now_s_ = 0.0;
  double state_ends_s_ = 0.0;
  bool in_burst_ = false;
  std::uint64_t next_id_ = 0;
  std::vector<std::uint64_t> flow_hashes_;
  std::vector<std::uint8_t> flow_priorities_;
  std::vector<bool> flow_ect_;
};

}  // namespace analognf::net
