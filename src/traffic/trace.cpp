#include "analognf/traffic/trace.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <istream>
#include <limits>
#include <ostream>
#include <stdexcept>
#include <string>

namespace analognf::traffic {
namespace {

// "ANFT" little-endian.
constexpr std::uint32_t kMagic = 0x54464e41u;
constexpr std::uint32_t kVersion = 1;

void PutU32(std::ostream& out, std::uint32_t v) {
  std::uint8_t b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(b), 4);
}

void PutU64(std::ostream& out, std::uint64_t v) {
  std::uint8_t b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<std::uint8_t>(v >> (8 * i));
  out.write(reinterpret_cast<const char*>(b), 8);
}

// Bit-pattern encoding: the replayed double is the recorded double,
// including every last mantissa bit (memcpy, no narrowing).
void PutF64(std::ostream& out, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  PutU64(out, bits);
}

std::uint32_t GetU32(std::istream& in) {
  std::uint8_t b[4];
  in.read(reinterpret_cast<char*>(b), 4);
  if (!in) throw std::runtime_error("trace: truncated input");
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[i]) << (8 * i);
  return v;
}

std::uint64_t GetU64(std::istream& in) {
  std::uint8_t b[8];
  in.read(reinterpret_cast<char*>(b), 8);
  if (!in) throw std::runtime_error("trace: truncated input");
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
  return v;
}

double GetF64(std::istream& in) {
  const std::uint64_t bits = GetU64(in);
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

// How many 20-byte records the rest of `in` can hold: measured when the
// stream can seek, otherwise a fixed cap on what a reserve may claim.
std::uint64_t RecordsLeft(std::istream& in) {
  constexpr std::uint64_t kRecordBytes = 20;
  constexpr std::uint64_t kBlindCap = 1u << 16;
  const std::istream::pos_type here = in.tellg();
  if (here == std::istream::pos_type(-1)) return kBlindCap;
  in.seekg(0, std::ios::end);
  const std::istream::pos_type end = in.tellg();
  in.clear();
  in.seekg(here);
  if (end == std::istream::pos_type(-1) || end < here) return kBlindCap;
  return static_cast<std::uint64_t>(end - here) / kRecordBytes;
}

}  // namespace

void WriteTrace(std::ostream& out, const Trace& trace) {
  trace.population.Validate();
  PutU32(out, kMagic);
  PutU32(out, kVersion);
  PutU64(out, trace.population.flows);
  PutU64(out, trace.population.seed);
  PutU32(out, trace.population.dst_base);
  PutU32(out, trace.population.dst_hosts);
  PutF64(out, trace.population.udp_fraction);
  PutF64(out, trace.population.ect_fraction);
  PutF64(out, trace.population.high_priority_fraction);
  PutU64(out, trace.records.size());
  for (const TraceRecord& r : trace.records) {
    PutF64(out, r.arrival_s);
    PutU64(out, r.flow);
    PutU32(out, r.frame_bytes);
  }
  if (!out) throw std::runtime_error("trace: write failed");
}

Trace ReadTrace(std::istream& in) {
  if (GetU32(in) != kMagic) throw std::runtime_error("trace: bad magic");
  const std::uint32_t version = GetU32(in);
  if (version != kVersion) {
    throw std::runtime_error("trace: unsupported version " +
                             std::to_string(version));
  }
  Trace trace;
  trace.population.flows = GetU64(in);
  trace.population.seed = GetU64(in);
  trace.population.dst_base = GetU32(in);
  trace.population.dst_hosts = GetU32(in);
  trace.population.udp_fraction = GetF64(in);
  trace.population.ect_fraction = GetF64(in);
  trace.population.high_priority_fraction = GetF64(in);
  try {
    trace.population.Validate();
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("trace: bad header: ") + e.what());
  }
  const std::uint64_t count = GetU64(in);
  // A corrupt count must fail as truncation, not as bad_alloc: reserve no
  // more records than the rest of the stream can hold, and let the vector
  // grow past the cap if the stream's size is unknown.
  trace.records.reserve(
      static_cast<std::size_t>(std::min(count, RecordsLeft(in))));
  double last_arrival_s = -std::numeric_limits<double>::infinity();
  for (std::uint64_t i = 0; i < count; ++i) {
    TraceRecord r;
    r.arrival_s = GetF64(in);
    r.flow = GetU64(in);
    r.frame_bytes = GetU32(in);
    if (!std::isfinite(r.arrival_s) || r.arrival_s < last_arrival_s) {
      throw std::runtime_error("trace: arrival times not finite and ordered");
    }
    if (r.flow >= trace.population.flows) {
      throw std::runtime_error("trace: flow index out of population");
    }
    last_arrival_s = r.arrival_s;
    trace.records.push_back(r);
  }
  return trace;
}

}  // namespace analognf::traffic
