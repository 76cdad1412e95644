// Byte-accurate packet representation and header construction.
//
// The architecture of Fig. 5 starts with a parser that extracts header
// fields from ingress packets and forwards them to the digital (TCAM) and
// analog (pCAM) match-action units. To exercise that path honestly we
// build real packets: Ethernet II / IPv4 / {TCP, UDP} with network byte
// order and a correct IPv4 header checksum, not structs pretending to be
// wire format.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace analognf::net {

using MacAddress = std::array<std::uint8_t, 6>;

// EtherType values used by the pipeline.
inline constexpr std::uint16_t kEtherTypeIpv4 = 0x0800;
inline constexpr std::uint16_t kEtherTypeArp = 0x0806;
inline constexpr std::uint16_t kEtherTypeVlan = 0x8100;  // 802.1Q TPID
inline constexpr std::uint16_t kEtherTypeIpv6 = 0x86DD;

// IPv4 protocol numbers used by the pipeline.
inline constexpr std::uint8_t kIpProtoTcp = 6;
inline constexpr std::uint8_t kIpProtoUdp = 17;

// Parsed/constructed header views (host byte order).
struct EthernetHeader {
  MacAddress dst{};
  MacAddress src{};
  std::uint16_t ether_type = kEtherTypeIpv4;

  static constexpr std::size_t kSize = 14;
};

// 802.1Q VLAN tag (inserted between the MACs and the EtherType).
struct VlanTag {
  std::uint8_t pcp = 0;       // 3-bit priority code point
  bool dei = false;           // drop eligible indicator
  std::uint16_t vlan_id = 1;  // 12-bit VID

  static constexpr std::size_t kSize = 4;
};

struct Ipv4Header {
  std::uint8_t dscp = 0;        // 6-bit DSCP (priority marking for AQM)
  std::uint8_t ecn = 0;         // 2-bit ECN field
  std::uint16_t total_length = 0;
  std::uint16_t identification = 0;
  std::uint8_t ttl = 64;
  std::uint8_t protocol = kIpProtoUdp;
  std::uint16_t checksum = 0;   // filled in by serialisation
  std::uint32_t src_ip = 0;
  std::uint32_t dst_ip = 0;

  static constexpr std::size_t kSize = 20;  // no options
};

// IPv6 fixed header (host byte order; no extension headers modelled).
struct Ipv6Header {
  std::uint8_t traffic_class = 0;   // DSCP+ECN byte
  std::uint32_t flow_label = 0;     // 20 bits
  std::uint16_t payload_length = 0; // filled in by serialisation
  std::uint8_t next_header = kIpProtoUdp;
  std::uint8_t hop_limit = 64;
  std::array<std::uint8_t, 16> src{};
  std::array<std::uint8_t, 16> dst{};

  static constexpr std::size_t kSize = 40;
};

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;       // CWR..FIN bit field
  std::uint16_t window = 65535;

  static constexpr std::size_t kSize = 20;  // no options
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint16_t length = 0;     // header + payload
  std::uint16_t checksum = 0;   // optional in IPv4; we emit 0

  static constexpr std::size_t kSize = 8;
};

// A packet is its bytes. Metadata the switch attaches in flight
// (timestamps, queue ids) lives in arch/sim, not here.
class Packet {
 public:
  Packet() = default;
  explicit Packet(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t>& bytes() { return bytes_; }
  std::size_t size() const { return bytes_.size(); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Builds valid packets layer by layer. Usage:
//   Packet p = PacketBuilder()
//       .Ethernet(eth).Ipv4(ip).Udp(udp).Payload(400).Build();
// Build() back-patches IPv4 total_length/checksum and UDP length.
class PacketBuilder {
 public:
  PacketBuilder& Ethernet(const EthernetHeader& eth);
  // Inserts an 802.1Q tag. vlan_id must fit in 12 bits, pcp in 3.
  PacketBuilder& Vlan(const VlanTag& tag);
  PacketBuilder& Ipv4(const Ipv4Header& ip);
  PacketBuilder& Ipv6(const Ipv6Header& ip);
  PacketBuilder& Tcp(const TcpHeader& tcp);
  PacketBuilder& Udp(const UdpHeader& udp);
  // Appends `size` bytes of deterministic payload.
  PacketBuilder& Payload(std::size_t size, std::uint8_t fill = 0xab);

  // Serialises. Throws std::logic_error if layering is inconsistent
  // (e.g. TCP without IPv4, IPv4 without Ethernet).
  Packet Build() const;

 private:
  bool has_eth_ = false;
  bool has_vlan_ = false;
  bool has_ip_ = false;
  bool has_ip6_ = false;
  bool has_tcp_ = false;
  bool has_udp_ = false;
  EthernetHeader eth_{};
  VlanTag vlan_{};
  Ipv4Header ip_{};
  Ipv6Header ip6_{};
  TcpHeader tcp_{};
  UdpHeader udp_{};
  std::size_t payload_size_ = 0;
  std::uint8_t payload_fill_ = 0xab;
};

// RFC 1071 Internet checksum over `data` (used for the IPv4 header).
std::uint16_t InternetChecksum(const std::uint8_t* data, std::size_t len);

// Dotted-quad address for examples and policies; throws on bad input.
std::uint32_t ParseIpv4(const std::string& dotted);

}  // namespace analognf::net
