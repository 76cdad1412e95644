// Header parser: the first stage of the Fig. 5 pipeline.
//
// Extracts Ethernet/IPv4/{TCP,UDP} headers from raw bytes and exposes the
// match fields (5-tuple, DSCP, lengths) that the digital and analog
// match-action units consume. Parsing never throws on malformed input —
// truncated or unknown packets yield a typed error, because a switch
// pipeline must classify garbage, not crash on it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analognf/net/packet.hpp"

namespace analognf::net {

enum class ParseError {
  kNone,
  kTruncatedEthernet,
  kUnsupportedEtherType,
  kTruncatedIpv4,
  kBadIpVersion,
  kBadIpHeaderLength,
  kBadIpChecksum,
  kTruncatedL4,
  kTruncatedIpv6,
};

// The canonical match key: IPv4 5-tuple.
struct FiveTuple {
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint8_t protocol = 0;

  // FNV-1a over the tuple fields; stable across runs for flow bucketing.
  std::uint64_t Hash() const;
};

// Result of parsing one packet. `error == kNone` implies eth plus
// exactly one of ipv4/ipv6 are populated; L4 headers follow the IP
// protocol / next-header field.
struct ParsedPacket {
  ParseError error = ParseError::kNone;
  EthernetHeader eth;
  std::optional<VlanTag> vlan;
  std::optional<Ipv4Header> ipv4;
  std::optional<Ipv6Header> ipv6;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::size_t payload_offset = 0;
  std::size_t payload_length = 0;

  bool ok() const { return error == ParseError::kNone; }

  // Match key; requires ok() and an L4 header (ports are 0 otherwise).
  FiveTuple Key() const;
};

// Stateless parser with a verification toggle.
class Parser {
 public:
  struct Options {
    // Verify the IPv4 header checksum (a hardware parser always does;
    // tests of corrupted input rely on it).
    bool verify_checksum = true;
  };

  Parser() = default;
  explicit Parser(Options options) : options_(options) {}

  ParsedPacket Parse(const std::uint8_t* data, std::size_t len) const;

  // Parses `count` packets into `out` (resized to count), one result per
  // packet, reusing the vector's storage across calls. Equivalent to
  // calling Parse() on each packet's bytes — the parser is stateless, so
  // batch front-ends (CognitiveSwitch::InjectBatch) fan parsing out
  // without changing any per-packet outcome.
  void ParseBatch(const Packet* packets, std::size_t count,
                  std::vector<ParsedPacket>& out) const;

 private:
  Options options_{};
};

}  // namespace analognf::net
