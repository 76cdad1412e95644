// Multi-hop topology harness: cognitive switches chained over links.
//
// The single-switch experiments show one queue; deployments care about
// end-to-end behaviour across several hops, each with its own analog
// AQM. This harness wires N switches in a line (egress port 0 of hop k
// feeds the ingress of hop k+1 after a propagation delay), drives the
// first hop with generated traffic, and reports per-hop and end-to-end
// delay statistics.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analognf/arch/switch.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/common/timeseries.hpp"
#include "analognf/net/generator.hpp"

namespace analognf::arch {

struct TopologyConfig {
  std::size_t hops = 2;
  double propagation_delay_s = 0.001;
  double duration_s = 10.0;
  double warmup_s = 2.0;
  // Per-hop switch configuration (port 0 is the line's forwarding port).
  SwitchConfig hop{};
  // Prefix length of the route to 10.0.0.0 installed on every hop so
  // traffic traverses the line.
  int dst_prefix_len = 8;

  void Validate() const;  // throws std::invalid_argument
};

struct TopologyReport {
  // Per-hop queueing delay of delivered packets (post-warmup).
  std::vector<analognf::RunningStats> hop_delay;
  // End-to-end latency (ingress of hop 0 to egress of the last hop,
  // including propagation) per delivered packet, post-warmup.
  analognf::RunningStats end_to_end;
  analognf::TimeSeries end_to_end_trace{"e2e_s"};
  std::uint64_t offered = 0;
  std::uint64_t delivered = 0;
  std::vector<SwitchStats> hop_stats;
  double total_pcam_energy_j = 0.0;
};

class LineTopology {
 public:
  // Builds the line and installs the forwarding route on every hop.
  // `make_packet` converts generated metadata into a wire packet
  // (the harness needs real bytes for each hop's parser).
  LineTopology(TopologyConfig config);

  // Runs generated traffic through the line. The source's packets are
  // materialised as UDP datagrams toward 10.0.0.0.
  TopologyReport Run(net::MetaSource& source);

  CognitiveSwitch& hop(std::size_t index) { return *switches_.at(index); }
  std::size_t hops() const { return switches_.size(); }

 private:
  net::Packet Materialize(const net::PacketMeta& meta) const;

  TopologyConfig config_;
  std::vector<std::unique_ptr<CognitiveSwitch>> switches_;
};

}  // namespace analognf::arch
