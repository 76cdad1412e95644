// Match-key construction: bridges the parser's typed headers and the
// bit-level keys the digital match-action tables consume.
#pragma once

#include "analognf/net/parser.hpp"
#include "analognf/tcam/ternary.hpp"

namespace analognf::arch {

// Width of the canonical 5-tuple key:
// 32 (src ip) + 32 (dst ip) + 16 (src port) + 16 (dst port) + 8 (proto).
inline constexpr std::size_t kFiveTupleBits = 104;

// Serialises a 5-tuple into the canonical 104-bit search key: the fields
// above, in that order, each MSB first (the key AppendU32(src_ip),
// AppendU32(dst_ip), AppendU16(src_port), AppendU16(dst_port),
// AppendU8(protocol) builds). In the BitKey lane layout (key bit i at
// bit i % 64 of lane i / 64) that is:
//   lane 0, bits  0..31: src_ip,   bit-reversed (src_ip's MSB at bit 0)
//   lane 0, bits 32..63: dst_ip,   bit-reversed
//   lane 1, bits  0..15: src_port, bit-reversed
//   lane 1, bits 16..31: dst_port, bit-reversed
//   lane 1, bits 32..39: protocol, bit-reversed
//   lane 1, bits 40..63: zero
// The key is written into a caller-owned `key` (overwritten), so
// per-packet hot paths reuse one BitKey allocation per batch slot; both
// lanes are written in one step.
void FiveTupleKeyInto(const net::FiveTuple& tuple, tcam::BitKey& key);

// Builds a 104-bit ternary firewall pattern. Any field can be wildcarded:
// prefix lengths of 0 wildcard an address entirely; `any_port`/-proto
// flags wildcard those fields.
struct FirewallPattern {
  std::uint32_t src_ip = 0;
  int src_prefix_len = 0;
  std::uint32_t dst_ip = 0;
  int dst_prefix_len = 0;
  std::uint16_t src_port = 0;
  bool any_src_port = true;
  std::uint16_t dst_port = 0;
  bool any_dst_port = true;
  std::uint8_t protocol = 0;
  bool any_protocol = true;
};

tcam::TernaryWord BuildFirewallWord(const FirewallPattern& pattern);

}  // namespace analognf::arch
