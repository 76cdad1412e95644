#include "analognf/arch/keys.hpp"

namespace analognf::arch {
namespace {

std::uint64_t ReverseBits64(std::uint64_t v) {
  v = ((v >> 1) & 0x5555555555555555ull) | ((v & 0x5555555555555555ull) << 1);
  v = ((v >> 2) & 0x3333333333333333ull) | ((v & 0x3333333333333333ull) << 2);
  v = ((v >> 4) & 0x0F0F0F0F0F0F0F0Full) | ((v & 0x0F0F0F0F0F0F0F0Full) << 4);
  return __builtin_bswap64(v);
}

// Ternary encoding of a 16-bit field that may be wildcarded.
tcam::TernaryWord U16Word(std::uint16_t value, bool any) {
  std::string s;
  s.reserve(16);
  for (int i = 15; i >= 0; --i) {
    const bool bit = ((static_cast<unsigned>(value) >> i) & 1u) != 0;
    s.push_back(any ? 'X' : (bit ? '1' : '0'));
  }
  return tcam::TernaryWord::FromString(s);
}

tcam::TernaryWord U8Word(std::uint8_t value, bool any) {
  std::string s;
  s.reserve(8);
  for (int i = 7; i >= 0; --i) {
    const bool bit = ((static_cast<unsigned>(value) >> i) & 1u) != 0;
    s.push_back(any ? 'X' : (bit ? '1' : '0'));
  }
  return tcam::TernaryWord::FromString(s);
}

}  // namespace

void FiveTupleKeyInto(const net::FiveTuple& tuple, tcam::BitKey& key) {
  // MSB-first appends land field bit (w-1-j) at key bit (offset + j), so
  // each lane is the bit reversal of its fields concatenated MSB-first.
  const std::uint64_t lanes[2] = {
      ReverseBits64(std::uint64_t{tuple.src_ip} << 32 | tuple.dst_ip),
      ReverseBits64(std::uint64_t{tuple.src_port} << 48 |
                    std::uint64_t{tuple.dst_port} << 32 |
                    std::uint64_t{tuple.protocol} << 24)};
  key.AssignLanes(lanes, kFiveTupleBits);
}

tcam::TernaryWord BuildFirewallWord(const FirewallPattern& pattern) {
  tcam::TernaryWord word =
      tcam::TernaryWord::FromPrefix(pattern.src_ip, pattern.src_prefix_len);
  word.Append(
      tcam::TernaryWord::FromPrefix(pattern.dst_ip, pattern.dst_prefix_len));
  word.Append(U16Word(pattern.src_port, pattern.any_src_port));
  word.Append(U16Word(pattern.dst_port, pattern.any_dst_port));
  word.Append(U8Word(pattern.protocol, pattern.any_protocol));
  return word;
}

}  // namespace analognf::arch
