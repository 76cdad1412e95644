// Compact binary traffic traces: record a workload once, replay it
// bit-identically anywhere.
//
// A trace does NOT store packet bytes. Because every FlowTuple is a pure
// function of (PopulationConfig, flow index) and every frame is a pure
// function of (tuple, frame_bytes), a record is just
// {arrival time, flow index, frame bytes} — 20 bytes per packet — and
// the header carries the PopulationConfig needed to regenerate the
// tuples. Arrival times round-trip as raw IEEE-754 bit patterns, so a
// recorded run and its replay hand the switch the *same doubles*, which
// is what makes replayed verdicts and energy ledgers bit-identical
// (LoadDriverTest.ReplayMatchesLiveRun pins this end to end).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "analognf/traffic/workload.hpp"

namespace analognf::traffic {

// One recorded packet.
struct TraceRecord {
  double arrival_s = 0.0;
  std::uint64_t flow = 0;        // index into the header's population
  std::uint32_t frame_bytes = 0; // full frame length on the wire
};

// A recorded stream: the population it was drawn from plus the packets.
struct Trace {
  PopulationConfig population{};
  std::vector<TraceRecord> records;
};

// Serializes `trace` in the little-endian "ANFT" v1 format. Throws
// std::runtime_error on stream failure.
void WriteTrace(std::ostream& out, const Trace& trace);

// Parses a trace written by WriteTrace. Throws std::runtime_error on
// bad magic, unsupported version, an invalid header, truncation, a flow
// outside the population, or a non-finite or decreasing arrival time.
// Memory is claimed as records arrive, never on the header's word alone.
Trace ReadTrace(std::istream& in);

}  // namespace analognf::traffic
