// Internet-scale workload models: who sends (a Zipf-popular population
// of millions of flows with stable 5-tuples/DSCP/ECN), when they send
// (net::ArrivalProcess: Poisson / MMPP / on-off), and what the packets
// look like (size models + fast byte-accurate synthesis).
//
// The paper evaluates against "Poisson distributed network flows"
// (Sec. 6); this layer keeps that process but makes the *population*
// realistic: flow popularity is heavy-tailed, per-flow headers are
// stable (so the firewall, LPM, classifier and flow tracker see
// consistent flows with realistic skew), and everything is derived
// deterministically from a seed — no per-flow storage, so a million
// simulated users costs nothing but the sampler.
#pragma once

#include <cstdint>
#include <vector>

#include "analognf/common/rng.hpp"
#include "analognf/net/generator.hpp"
#include "analognf/net/packet.hpp"
#include "analognf/traffic/zipf.hpp"

namespace analognf::traffic {

// The stable header identity of one simulated flow.
struct FlowTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;  // net::kIpProtoUdp or kIpProtoTcp
  std::uint8_t dscp = 0;      // 6-bit DSCP
  bool ect = false;           // ECN-capable transport (ECT(0))
};

// Deterministic flow-index -> FlowTuple mapping. Every field is derived
// from SplitMix64(seed, flow), so the population needs zero storage and
// any subset of flows can be regenerated anywhere (trace replay relies
// on this: a trace stores flow indices plus this config, not tuples).
struct PopulationConfig {
  std::uint64_t flows = 1u << 20;  // simulated concurrent flows
  std::uint64_t seed = 0x5eedf10;
  // Destination fan-in: dst_ip = dst_base + (hash % dst_hosts). Kept
  // small relative to `flows` so routes stay installable; defaults give
  // 10.0.0.0/24 servers behind a handful of routes.
  std::uint32_t dst_base = 0x0a000000u;  // 10.0.0.0
  std::uint32_t dst_hosts = 256;
  double udp_fraction = 0.8;  // remaining flows are TCP
  double ect_fraction = 0.5;  // ECN-capable transports
  // Per-flow DSCP class selector (priority p in 0..7 maps to DSCP p<<3);
  // chance of a high-priority flow (p in 4..7) vs best effort (0..3).
  double high_priority_fraction = 0.25;

  void Validate() const;  // throws std::invalid_argument
};

class FlowPopulation {
 public:
  explicit FlowPopulation(PopulationConfig config);

  const PopulationConfig& config() const { return config_; }
  std::uint64_t flows() const { return config_.flows; }

  // The stable tuple of flow `flow` (any index < flows()).
  FlowTuple Tuple(std::uint64_t flow) const;

 private:
  PopulationConfig config_;
};

// ------------------------------------------------------------- workload

// The full per-port workload: population x popularity x arrivals x sizes.
struct WorkloadConfig {
  PopulationConfig population{};
  double zipf_s = 1.0;  // 0 = uniform popularity
  net::ArrivalConfig arrivals{};
  enum class Sizes : std::uint8_t { kImix };  // net::ImixBytes
  Sizes sizes = Sizes::kImix;
  std::uint64_t seed = 0x10ad;

  void Validate() const;  // throws std::invalid_argument
};

// ------------------------------------------------------------ synthesis

// Writes a byte-accurate Ethernet/IPv4/{UDP,TCP} frame of exactly
// `frame_bytes` (clamped up to the tuple's minimum) for `tuple` into
// `out` (resized; storage reused across calls). The bytes parse cleanly
// through net::Parser with checksum verification and reproduce the
// tuple's 5-tuple, DSCP and ECN bit-exactly — the property the
// differential test pins, and what makes trace replay byte-identical.
void SynthesizeFrame(const FlowTuple& tuple, std::uint32_t frame_bytes,
                     std::vector<std::uint8_t>& out);

}  // namespace analognf::traffic
