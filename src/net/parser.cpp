#include "analognf/net/parser.hpp"

namespace analognf::net {
namespace {

std::uint16_t GetU16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] << 8 | p[1]);
}

std::uint32_t GetU32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) << 24 |
         static_cast<std::uint32_t>(p[1]) << 16 |
         static_cast<std::uint32_t>(p[2]) << 8 |
         static_cast<std::uint32_t>(p[3]);
}

}  // namespace

std::uint64_t FiveTuple::Hash() const {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  mix(src_ip, 4);
  mix(dst_ip, 4);
  mix(src_port, 2);
  mix(dst_port, 2);
  mix(protocol, 1);
  return h;
}

FiveTuple ParsedPacket::Key() const {
  FiveTuple key;
  if (ipv4.has_value()) {
    key.src_ip = ipv4->src_ip;
    key.dst_ip = ipv4->dst_ip;
    key.protocol = ipv4->protocol;
  }
  if (tcp.has_value()) {
    key.src_port = tcp->src_port;
    key.dst_port = tcp->dst_port;
  } else if (udp.has_value()) {
    key.src_port = udp->src_port;
    key.dst_port = udp->dst_port;
  }
  return key;
}

void Parser::ParseBatch(const Packet* packets, std::size_t count,
                        std::vector<ParsedPacket>& out) const {
  // Packets usually arrive from another core, so their header lines are
  // cold here: prefetch the headers of packet i + kAhead while parsing
  // packet i. Eth + IPv4 + TCP headers run to byte 54, so a second
  // prefetch at data() + 48 covers them when the buffer starts mid-line.
  // Only in-bounds addresses are formed: nothing for an empty packet,
  // one line for frames of 48 bytes or fewer.
  constexpr std::size_t kAhead = 8;
  constexpr std::size_t kSecondLine = 48;
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kAhead < count) {
      const std::vector<std::uint8_t>& ahead = packets[i + kAhead].bytes();
      if (!ahead.empty()) __builtin_prefetch(ahead.data());
      if (ahead.size() > kSecondLine) {
        __builtin_prefetch(ahead.data() + kSecondLine);
      }
    }
    out[i] = Parse(packets[i].bytes().data(), packets[i].size());
  }
}

ParsedPacket Parser::Parse(const std::uint8_t* data, std::size_t len) const {
  ParsedPacket out;

  // --- Ethernet ---
  if (len < EthernetHeader::kSize) {
    out.error = ParseError::kTruncatedEthernet;
    return out;
  }
  for (int i = 0; i < 6; ++i) out.eth.dst[static_cast<std::size_t>(i)] = data[i];
  for (int i = 0; i < 6; ++i) {
    out.eth.src[static_cast<std::size_t>(i)] = data[6 + i];
  }
  out.eth.ether_type = GetU16(data + 12);
  std::size_t l2_size = EthernetHeader::kSize;
  if (out.eth.ether_type == kEtherTypeVlan) {
    if (len < EthernetHeader::kSize + VlanTag::kSize) {
      out.error = ParseError::kTruncatedEthernet;
      return out;
    }
    const std::uint16_t tci = GetU16(data + 14);
    VlanTag tag;
    tag.pcp = static_cast<std::uint8_t>(tci >> 13);
    tag.dei = (tci & 0x1000) != 0;
    tag.vlan_id = tci & 0x0fff;
    out.vlan = tag;
    out.eth.ether_type = GetU16(data + 16);
    l2_size += VlanTag::kSize;
  }
  if (out.eth.ether_type == kEtherTypeIpv6) {
    // --- IPv6 (fixed header; extension headers not modelled) ---
    const std::uint8_t* ip6 = data + l2_size;
    const std::size_t ip6_avail = len - l2_size;
    if (ip6_avail < Ipv6Header::kSize) {
      out.error = ParseError::kTruncatedIpv6;
      return out;
    }
    if ((ip6[0] >> 4) != 6) {
      out.error = ParseError::kBadIpVersion;
      return out;
    }
    Ipv6Header v6;
    v6.traffic_class = static_cast<std::uint8_t>(
        ((ip6[0] & 0x0f) << 4) | (ip6[1] >> 4));
    v6.flow_label = (static_cast<std::uint32_t>(ip6[1] & 0x0f) << 16) |
                    (static_cast<std::uint32_t>(ip6[2]) << 8) | ip6[3];
    v6.payload_length = GetU16(ip6 + 4);
    v6.next_header = ip6[6];
    v6.hop_limit = ip6[7];
    for (std::size_t i = 0; i < 16; ++i) {
      v6.src[i] = ip6[8 + i];
      v6.dst[i] = ip6[24 + i];
    }
    out.ipv6 = v6;

    const std::uint8_t* l4v6 = ip6 + Ipv6Header::kSize;
    const std::size_t l4v6_avail = ip6_avail - Ipv6Header::kSize;
    std::size_t l4v6_size = 0;
    if (v6.next_header == kIpProtoUdp) {
      if (l4v6_avail < UdpHeader::kSize) {
        out.error = ParseError::kTruncatedL4;
        return out;
      }
      UdpHeader udp;
      udp.src_port = GetU16(l4v6);
      udp.dst_port = GetU16(l4v6 + 2);
      udp.length = GetU16(l4v6 + 4);
      udp.checksum = GetU16(l4v6 + 6);
      out.udp = udp;
      l4v6_size = UdpHeader::kSize;
    } else if (v6.next_header == kIpProtoTcp) {
      if (l4v6_avail < TcpHeader::kSize) {
        out.error = ParseError::kTruncatedL4;
        return out;
      }
      TcpHeader tcp;
      tcp.src_port = GetU16(l4v6);
      tcp.dst_port = GetU16(l4v6 + 2);
      tcp.seq = GetU32(l4v6 + 4);
      tcp.ack = GetU32(l4v6 + 8);
      tcp.flags = l4v6[13];
      tcp.window = GetU16(l4v6 + 14);
      out.tcp = tcp;
      l4v6_size = TcpHeader::kSize;
    }
    out.payload_offset = l2_size + Ipv6Header::kSize + l4v6_size;
    out.payload_length = len - out.payload_offset;
    return out;
  }
  if (out.eth.ether_type != kEtherTypeIpv4) {
    out.error = ParseError::kUnsupportedEtherType;
    return out;
  }

  // --- IPv4 ---
  const std::uint8_t* ip = data + l2_size;
  const std::size_t ip_avail = len - l2_size;
  if (ip_avail < Ipv4Header::kSize) {
    out.error = ParseError::kTruncatedIpv4;
    return out;
  }
  const std::uint8_t version = ip[0] >> 4;
  if (version != 4) {
    out.error = ParseError::kBadIpVersion;
    return out;
  }
  const std::size_t ihl_bytes = static_cast<std::size_t>(ip[0] & 0x0f) * 4;
  if (ihl_bytes < Ipv4Header::kSize || ihl_bytes > ip_avail) {
    out.error = ParseError::kBadIpHeaderLength;
    return out;
  }
  if (options_.verify_checksum &&
      InternetChecksum(ip, ihl_bytes) != 0) {
    out.error = ParseError::kBadIpChecksum;
    return out;
  }
  Ipv4Header ipv4;
  ipv4.dscp = ip[1] >> 2;
  ipv4.ecn = ip[1] & 0x3;
  ipv4.total_length = GetU16(ip + 2);
  ipv4.identification = GetU16(ip + 4);
  ipv4.ttl = ip[8];
  ipv4.protocol = ip[9];
  ipv4.checksum = GetU16(ip + 10);
  ipv4.src_ip = GetU32(ip + 12);
  ipv4.dst_ip = GetU32(ip + 16);
  out.ipv4 = ipv4;

  // --- L4 ---
  const std::uint8_t* l4 = ip + ihl_bytes;
  const std::size_t l4_avail = ip_avail - ihl_bytes;
  std::size_t l4_size = 0;
  if (ipv4.protocol == kIpProtoTcp) {
    if (l4_avail < TcpHeader::kSize) {
      out.error = ParseError::kTruncatedL4;
      return out;
    }
    TcpHeader tcp;
    tcp.src_port = GetU16(l4);
    tcp.dst_port = GetU16(l4 + 2);
    tcp.seq = GetU32(l4 + 4);
    tcp.ack = GetU32(l4 + 8);
    tcp.flags = l4[13];
    tcp.window = GetU16(l4 + 14);
    const std::size_t data_offset = static_cast<std::size_t>(l4[12] >> 4) * 4;
    if (data_offset < TcpHeader::kSize || data_offset > l4_avail) {
      out.error = ParseError::kTruncatedL4;
      return out;
    }
    out.tcp = tcp;
    l4_size = data_offset;
  } else if (ipv4.protocol == kIpProtoUdp) {
    if (l4_avail < UdpHeader::kSize) {
      out.error = ParseError::kTruncatedL4;
      return out;
    }
    UdpHeader udp;
    udp.src_port = GetU16(l4);
    udp.dst_port = GetU16(l4 + 2);
    udp.length = GetU16(l4 + 4);
    udp.checksum = GetU16(l4 + 6);
    out.udp = udp;
    l4_size = UdpHeader::kSize;
  }
  // Other protocols: header parsing stops at IPv4, which is still ok().

  out.payload_offset = l2_size + ihl_bytes + l4_size;
  out.payload_length = len - out.payload_offset;
  return out;
}

}  // namespace analognf::net
