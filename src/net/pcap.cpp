#include "analognf/net/pcap.hpp"

#include <cmath>
#include <istream>
#include <ostream>
#include <stdexcept>

namespace analognf::net {
namespace {

constexpr std::uint32_t kMagicMicroseconds = 0xa1b2c3d4;
constexpr std::uint16_t kVersionMajor = 2;
constexpr std::uint16_t kVersionMinor = 4;
constexpr std::uint32_t kLinkTypeEthernet = 1;
// libpcap's MAXIMUM_SNAPLEN: no record body may be longer, so a corrupt
// length field cannot make the reader allocate more than this.
constexpr std::uint32_t kMaxSnapLen = 262144;

void PutU16Le(std::ostream& out, std::uint16_t v) {
  const char bytes[2] = {static_cast<char>(v & 0xff),
                         static_cast<char>(v >> 8)};
  out.write(bytes, 2);
}

void PutU32Le(std::ostream& out, std::uint32_t v) {
  const char bytes[4] = {
      static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
      static_cast<char>((v >> 16) & 0xff), static_cast<char>(v >> 24)};
  out.write(bytes, 4);
}

std::uint32_t GetU32Le(std::istream& in) {
  unsigned char bytes[4];
  in.read(reinterpret_cast<char*>(bytes), 4);
  if (!in) throw std::runtime_error("pcap: truncated input");
  return static_cast<std::uint32_t>(bytes[0]) |
         static_cast<std::uint32_t>(bytes[1]) << 8 |
         static_cast<std::uint32_t>(bytes[2]) << 16 |
         static_cast<std::uint32_t>(bytes[3]) << 24;
}

std::uint16_t GetU16Le(std::istream& in) {
  unsigned char bytes[2];
  in.read(reinterpret_cast<char*>(bytes), 2);
  if (!in) throw std::runtime_error("pcap: truncated input");
  return static_cast<std::uint16_t>(
      bytes[0] | static_cast<std::uint16_t>(bytes[1]) << 8);
}

}  // namespace

PcapWriter::PcapWriter(std::ostream& out, std::uint32_t snap_len)
    : out_(out), snap_len_(snap_len) {
  if (snap_len == 0) {
    throw std::invalid_argument("PcapWriter: zero snap length");
  }
  PutU32Le(out_, kMagicMicroseconds);
  PutU16Le(out_, kVersionMajor);
  PutU16Le(out_, kVersionMinor);
  PutU32Le(out_, 0);  // thiszone
  PutU32Le(out_, 0);  // sigfigs
  PutU32Le(out_, snap_len_);
  PutU32Le(out_, kLinkTypeEthernet);
}

void PcapWriter::Write(double timestamp_s, const Packet& packet) {
  if (timestamp_s < last_timestamp_s_) {
    throw std::invalid_argument("PcapWriter: timestamps went backwards");
  }
  last_timestamp_s_ = timestamp_s;
  const auto seconds = static_cast<std::uint32_t>(timestamp_s);
  const auto micros = static_cast<std::uint32_t>(
      std::round((timestamp_s - static_cast<double>(seconds)) * 1e6));
  const auto orig_len = static_cast<std::uint32_t>(packet.size());
  const std::uint32_t incl_len = std::min(orig_len, snap_len_);
  PutU32Le(out_, seconds);
  PutU32Le(out_, micros >= 1000000 ? 999999 : micros);
  PutU32Le(out_, incl_len);
  PutU32Le(out_, orig_len);
  out_.write(reinterpret_cast<const char*>(packet.bytes().data()),
             static_cast<std::streamsize>(incl_len));
  ++frames_;
}

std::vector<PcapRecord> ReadPcap(std::istream& in) {
  if (GetU32Le(in) != kMagicMicroseconds) {
    throw std::runtime_error("pcap: bad magic (expected 0xa1b2c3d4 LE)");
  }
  GetU16Le(in);  // version major
  GetU16Le(in);  // version minor
  GetU32Le(in);  // thiszone
  GetU32Le(in);  // sigfigs
  const std::uint32_t snap_len = GetU32Le(in);
  if (snap_len == 0 || snap_len > kMaxSnapLen) {
    throw std::runtime_error("pcap: snaplen out of range");
  }
  if (GetU32Le(in) != kLinkTypeEthernet) {
    throw std::runtime_error("pcap: unsupported link type");
  }

  std::vector<PcapRecord> records;
  for (;;) {
    in.peek();
    if (in.eof()) break;
    if (!in) throw std::runtime_error("pcap: read error");
    const std::uint32_t seconds = GetU32Le(in);
    const std::uint32_t micros = GetU32Le(in);
    const std::uint32_t incl_len = GetU32Le(in);
    GetU32Le(in);  // orig_len
    if (micros >= 1000000) {
      throw std::runtime_error("pcap: record microseconds out of range");
    }
    if (incl_len > snap_len) {
      throw std::runtime_error("pcap: record longer than snaplen");
    }
    std::vector<std::uint8_t> bytes(incl_len);
    in.read(reinterpret_cast<char*>(bytes.data()), incl_len);
    if (!in) throw std::runtime_error("pcap: truncated frame body");
    PcapRecord record;
    record.timestamp_s =
        static_cast<double>(seconds) + static_cast<double>(micros) * 1e-6;
    record.packet = Packet(std::move(bytes));
    records.push_back(std::move(record));
  }
  return records;
}

}  // namespace analognf::net
