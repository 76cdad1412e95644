#include "analognf/net/packet.hpp"

#include <sstream>
#include <stdexcept>

namespace analognf::net {
namespace {

void PutU16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void PutU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 24));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void PatchU16(std::vector<std::uint8_t>& buf, std::size_t offset,
              std::uint16_t v) {
  buf[offset] = static_cast<std::uint8_t>(v >> 8);
  buf[offset + 1] = static_cast<std::uint8_t>(v & 0xff);
}

}  // namespace

std::uint16_t InternetChecksum(const std::uint8_t* data, std::size_t len) {
  std::uint32_t sum = 0;
  std::size_t i = 0;
  for (; i + 1 < len; i += 2) {
    sum += static_cast<std::uint32_t>(data[i]) << 8 | data[i + 1];
  }
  if (i < len) {  // odd trailing byte, padded with zero
    sum += static_cast<std::uint32_t>(data[i]) << 8;
  }
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

PacketBuilder& PacketBuilder::Ethernet(const EthernetHeader& eth) {
  eth_ = eth;
  has_eth_ = true;
  return *this;
}

PacketBuilder& PacketBuilder::Vlan(const VlanTag& tag) {
  if (tag.vlan_id > 0x0fff) {
    throw std::invalid_argument("PacketBuilder::Vlan: vlan_id > 12 bits");
  }
  if (tag.pcp > 7) {
    throw std::invalid_argument("PacketBuilder::Vlan: pcp > 3 bits");
  }
  vlan_ = tag;
  has_vlan_ = true;
  return *this;
}

PacketBuilder& PacketBuilder::Ipv4(const Ipv4Header& ip) {
  ip_ = ip;
  has_ip_ = true;
  return *this;
}

PacketBuilder& PacketBuilder::Ipv6(const Ipv6Header& ip) {
  if (ip.flow_label > 0xfffff) {
    throw std::invalid_argument("PacketBuilder::Ipv6: flow label > 20 bits");
  }
  ip6_ = ip;
  has_ip6_ = true;
  eth_.ether_type = kEtherTypeIpv6;
  return *this;
}

PacketBuilder& PacketBuilder::Tcp(const TcpHeader& tcp) {
  tcp_ = tcp;
  has_tcp_ = true;
  return *this;
}

PacketBuilder& PacketBuilder::Udp(const UdpHeader& udp) {
  udp_ = udp;
  has_udp_ = true;
  return *this;
}

PacketBuilder& PacketBuilder::Payload(std::size_t size, std::uint8_t fill) {
  payload_size_ = size;
  payload_fill_ = fill;
  return *this;
}

Packet PacketBuilder::Build() const {
  if (!has_eth_) {
    throw std::logic_error("PacketBuilder: Ethernet layer is required");
  }
  if (has_ip_ && has_ip6_) {
    throw std::logic_error("PacketBuilder: both IPv4 and IPv6 set");
  }
  if ((has_tcp_ || has_udp_) && !has_ip_ && !has_ip6_) {
    throw std::logic_error("PacketBuilder: L4 requires an IP layer");
  }
  if (has_tcp_ && has_udp_) {
    throw std::logic_error("PacketBuilder: both TCP and UDP set");
  }

  std::vector<std::uint8_t> out;
  out.reserve(EthernetHeader::kSize + Ipv4Header::kSize + TcpHeader::kSize +
              payload_size_);

  // --- Ethernet II (with optional 802.1Q tag) ---
  out.insert(out.end(), eth_.dst.begin(), eth_.dst.end());
  out.insert(out.end(), eth_.src.begin(), eth_.src.end());
  if (has_vlan_) {
    PutU16(out, kEtherTypeVlan);
    const auto tci = static_cast<std::uint16_t>(
        (vlan_.pcp << 13) | (vlan_.dei ? 1u << 12 : 0u) | vlan_.vlan_id);
    PutU16(out, tci);
  }
  PutU16(out, eth_.ether_type);

  if (has_ip6_) {
    const std::size_t l4_size = has_tcp_   ? TcpHeader::kSize
                                : has_udp_ ? UdpHeader::kSize
                                           : 0;
    const auto payload_length =
        static_cast<std::uint16_t>(l4_size + payload_size_);
    // Version (6) | traffic class | flow label.
    out.push_back(static_cast<std::uint8_t>(
        0x60 | (ip6_.traffic_class >> 4)));
    out.push_back(static_cast<std::uint8_t>(
        ((ip6_.traffic_class & 0x0f) << 4) | ((ip6_.flow_label >> 16) & 0x0f)));
    PutU16(out, static_cast<std::uint16_t>(ip6_.flow_label & 0xffff));
    PutU16(out, payload_length);
    out.push_back(ip6_.next_header);
    out.push_back(ip6_.hop_limit);
    out.insert(out.end(), ip6_.src.begin(), ip6_.src.end());
    out.insert(out.end(), ip6_.dst.begin(), ip6_.dst.end());
  }

  std::size_t ip_offset = 0;
  if (has_ip_) {
    ip_offset = out.size();
    const std::size_t l4_size = has_tcp_   ? TcpHeader::kSize
                                : has_udp_ ? UdpHeader::kSize
                                           : 0;
    const auto total_length = static_cast<std::uint16_t>(
        Ipv4Header::kSize + l4_size + payload_size_);

    out.push_back(0x45);  // version 4, IHL 5
    out.push_back(static_cast<std::uint8_t>(
        (ip_.dscp << 2) | (ip_.ecn & 0x3)));
    PutU16(out, total_length);
    PutU16(out, ip_.identification);
    PutU16(out, 0);  // flags/fragment offset: DF not set, no fragments
    out.push_back(ip_.ttl);
    out.push_back(ip_.protocol);
    PutU16(out, 0);  // checksum placeholder
    PutU32(out, ip_.src_ip);
    PutU32(out, ip_.dst_ip);

    const std::uint16_t csum =
        InternetChecksum(out.data() + ip_offset, Ipv4Header::kSize);
    PatchU16(out, ip_offset + 10, csum);
  }

  if (has_tcp_) {
    PutU16(out, tcp_.src_port);
    PutU16(out, tcp_.dst_port);
    PutU32(out, tcp_.seq);
    PutU32(out, tcp_.ack);
    out.push_back(0x50);  // data offset 5 words, reserved 0
    out.push_back(tcp_.flags);
    PutU16(out, tcp_.window);
    PutU16(out, 0);  // checksum: not modelled (needs pseudo-header)
    PutU16(out, 0);  // urgent pointer
  } else if (has_udp_) {
    PutU16(out, udp_.src_port);
    PutU16(out, udp_.dst_port);
    const auto udp_len =
        static_cast<std::uint16_t>(UdpHeader::kSize + payload_size_);
    PutU16(out, udp_.length != 0 ? udp_.length : udp_len);
    PutU16(out, udp_.checksum);
  }

  out.insert(out.end(), payload_size_, payload_fill_);
  return Packet(std::move(out));
}

std::uint32_t ParseIpv4(const std::string& dotted) {
  std::istringstream ss(dotted);
  std::uint32_t result = 0;
  for (int i = 0; i < 4; ++i) {
    int octet = -1;
    ss >> octet;
    if (!ss || octet < 0 || octet > 255) {
      throw std::invalid_argument("ParseIpv4: bad address: " + dotted);
    }
    result = (result << 8) | static_cast<std::uint32_t>(octet);
    if (i < 3) {
      char dot = 0;
      ss >> dot;
      if (dot != '.') {
        throw std::invalid_argument("ParseIpv4: bad address: " + dotted);
      }
    }
  }
  char trailing = 0;
  if (ss >> trailing) {
    throw std::invalid_argument("ParseIpv4: trailing junk: " + dotted);
  }
  return result;
}

}  // namespace analognf::net
