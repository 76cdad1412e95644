#include "analognf/traffic/workload.hpp"

#include <stdexcept>

namespace analognf::traffic {
namespace {

void PutU16At(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v & 0xff);
}

void PutU32At(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>((v >> 16) & 0xff);
  p[2] = static_cast<std::uint8_t>((v >> 8) & 0xff);
  p[3] = static_cast<std::uint8_t>(v & 0xff);
}

// Maps a 64-bit hash lane to [0, 1) the same way RandomStream does, so
// per-flow trait fractions are unbiased.
double UnitFromHash(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

void PopulationConfig::Validate() const {
  if (flows == 0) {
    throw std::invalid_argument("PopulationConfig: flows == 0");
  }
  if (dst_hosts == 0) {
    throw std::invalid_argument("PopulationConfig: dst_hosts == 0");
  }
  if (!(udp_fraction >= 0.0 && udp_fraction <= 1.0) ||
      !(ect_fraction >= 0.0 && ect_fraction <= 1.0) ||
      !(high_priority_fraction >= 0.0 && high_priority_fraction <= 1.0)) {
    throw std::invalid_argument("PopulationConfig: fraction out of [0,1]");
  }
}

FlowPopulation::FlowPopulation(PopulationConfig config)
    : config_(config) {
  config_.Validate();
}

FlowTuple FlowPopulation::Tuple(std::uint64_t flow) const {
  // Four independent hash lanes from one SplitMix64 stream keyed by
  // (seed, flow): addresses/ports, protocol, ECN, priority.
  analognf::SplitMix64 sm(config_.seed ^ (flow * 0x9e3779b97f4a7c15ULL) ^
                          (flow >> 32));
  const std::uint64_t h0 = sm.Next();
  const std::uint64_t h1 = sm.Next();
  const std::uint64_t h2 = sm.Next();

  FlowTuple t;
  // Clients spread over 100.64.0.0/10-style space; avoid 0.0.0.0.
  t.src_ip = 0x64400000u | (static_cast<std::uint32_t>(h0) & 0x003fffffu) | 1u;
  t.dst_ip = config_.dst_base +
             static_cast<std::uint32_t>((h0 >> 32) % config_.dst_hosts);
  t.src_port = static_cast<std::uint16_t>(1024 + ((h1 >> 0) & 0xffff) % 64511);
  const bool udp = UnitFromHash(h1) < config_.udp_fraction;
  t.protocol = udp ? net::kIpProtoUdp : net::kIpProtoTcp;
  t.dst_port = udp ? 53 : 443;
  t.ect = UnitFromHash(h2) < config_.ect_fraction;
  // Priority 4..7 for high-priority flows, 0..3 otherwise; DSCP carries
  // it in the class-selector bits (p << 3).
  const bool high = UnitFromHash(sm.Next()) < config_.high_priority_fraction;
  const auto sub = static_cast<std::uint8_t>((h2 >> 32) & 0x3);
  const auto priority = static_cast<std::uint8_t>(high ? 4 + sub : sub);
  t.dscp = static_cast<std::uint8_t>(priority << 3);
  return t;
}

// ------------------------------------------------------------- workload

void WorkloadConfig::Validate() const {
  population.Validate();
  arrivals.Validate();
  if (!(zipf_s >= 0.0)) {
    throw std::invalid_argument("WorkloadConfig: zipf_s < 0");
  }
}

// ------------------------------------------------------------ synthesis

void SynthesizeFrame(const FlowTuple& tuple, std::uint32_t frame_bytes,
                     std::vector<std::uint8_t>& out) {
  const bool tcp = tuple.protocol == net::kIpProtoTcp;
  const std::uint32_t l4_size =
      tcp ? net::TcpHeader::kSize : net::UdpHeader::kSize;
  const std::uint32_t min_bytes =
      net::EthernetHeader::kSize + net::Ipv4Header::kSize + l4_size;
  if (frame_bytes < min_bytes) frame_bytes = min_bytes;
  const std::uint32_t payload = frame_bytes - min_bytes;

  out.assign(frame_bytes, 0xab);  // payload fill matches PacketBuilder
  std::uint8_t* p = out.data();

  // Ethernet II. Locally-administered MACs derived from the IPs keep
  // the frames of different hosts distinguishable without per-flow
  // state.
  p[0] = 0x02;
  PutU32At(p + 1, tuple.dst_ip);
  p[5] = 0x01;
  p[6] = 0x02;
  PutU32At(p + 7, tuple.src_ip);
  p[11] = 0x02;
  PutU16At(p + 12, net::kEtherTypeIpv4);
  p += net::EthernetHeader::kSize;

  // IPv4, version 4 / IHL 5, DF clear, matching PacketBuilder's layout.
  const auto total_length = static_cast<std::uint16_t>(
      net::Ipv4Header::kSize + l4_size + payload);
  p[0] = 0x45;
  p[1] = static_cast<std::uint8_t>((tuple.dscp << 2) | (tuple.ect ? 2 : 0));
  PutU16At(p + 2, total_length);
  PutU16At(p + 4, 0);  // identification
  PutU16At(p + 6, 0);  // flags / fragment offset
  p[8] = 64;           // ttl
  p[9] = tuple.protocol;
  PutU16At(p + 10, 0);  // checksum placeholder
  PutU32At(p + 12, tuple.src_ip);
  PutU32At(p + 16, tuple.dst_ip);
  PutU16At(p + 10, net::InternetChecksum(p, net::Ipv4Header::kSize));
  p += net::Ipv4Header::kSize;

  if (tcp) {
    PutU16At(p + 0, tuple.src_port);
    PutU16At(p + 2, tuple.dst_port);
    PutU32At(p + 4, 0);   // seq
    PutU32At(p + 8, 0);   // ack
    p[12] = 0x50;         // data offset 5 words
    p[13] = 0x10;         // ACK flag
    PutU16At(p + 14, 65535);  // window
    PutU16At(p + 16, 0);  // checksum (not modelled)
    PutU16At(p + 18, 0);  // urgent pointer
  } else {
    PutU16At(p + 0, tuple.src_port);
    PutU16At(p + 2, tuple.dst_port);
    PutU16At(p + 4, static_cast<std::uint16_t>(net::UdpHeader::kSize +
                                               payload));
    PutU16At(p + 6, 0);  // optional checksum
  }
}

}  // namespace analognf::traffic
