// PCAP (libpcap classic format) export/import.
//
// Generated traffic and switch deliveries can be written to standard
// .pcap files for inspection in Wireshark/tcpdump, and captures can be
// replayed into the parser/switch — the interoperability a downstream
// user expects from a packet library.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "analognf/net/packet.hpp"

namespace analognf::net {

// One captured frame with its timestamp.
struct PcapRecord {
  double timestamp_s = 0.0;
  Packet packet;
};

class PcapWriter {
 public:
  // Writes the global header immediately. LINKTYPE_ETHERNET (1).
  explicit PcapWriter(std::ostream& out, std::uint32_t snap_len = 65535);

  // Appends one frame. Timestamps must be non-decreasing (pcap readers
  // tolerate disorder but our writer enforces sanity). Frames longer
  // than snap_len are truncated on disk (orig_len records the truth).
  void Write(double timestamp_s, const Packet& packet);

  std::uint64_t frames() const { return frames_; }

 private:
  std::ostream& out_;
  std::uint32_t snap_len_;
  double last_timestamp_s_ = 0.0;
  std::uint64_t frames_ = 0;
};

// Reads a whole capture. Throws std::runtime_error on malformed input
// (bad magic, a snaplen of 0 or above 262144, a record longer than the
// snaplen or with microseconds >= 1e6, truncated records). Only the
// microsecond little-endian flavour written by PcapWriter and standard
// tools is supported.
std::vector<PcapRecord> ReadPcap(std::istream& in);

}  // namespace analognf::net
