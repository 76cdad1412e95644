// TrafficSource: one port's packet stream, batch at a time.
//
// Two modes behind one NextBatch() API:
//   * Live      — WorkloadConfig-driven synthesis: ArrivalProcess clocks
//                 the stream, a ZipfSampler picks which flow of the
//                 FlowPopulation sends (heavy-tailed popularity), a size
//                 model picks the frame length, and SynthesizeFrame
//                 emits the byte-accurate packet. Never exhausts.
//   * Replay    — re-emits a recorded Trace. Because synthesis is a
//                 pure function of (population, flow, frame_bytes), the
//                 replayed packets are byte-identical to the live run
//                 that recorded the trace.
//
// RecordTo() tees every emitted packet into a Trace. A source is
// single-threaded: exactly the producer thread that owns it calls
// NextBatch().
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "analognf/net/generator.hpp"
#include "analognf/traffic/trace.hpp"
#include "analognf/traffic/workload.hpp"
#include "analognf/traffic/zipf.hpp"

namespace analognf::traffic {

class TrafficSource {
 public:
  // Live synthesis from `config` (validated; throws on bad config).
  static TrafficSource Live(WorkloadConfig config);
  // Replays `trace` once, then reports exhaustion.
  static TrafficSource Replay(Trace trace);

  TrafficSource(TrafficSource&&) = default;
  TrafficSource& operator=(TrafficSource&&) = default;

  // Tees emitted packets into `trace` (population is filled in; records
  // are appended). Pass nullptr to stop recording.
  void RecordTo(Trace* trace);

  // Appends up to `max_packets` packets to `packets` and sets `now_s`
  // to the arrival time of the last one (the batch's injection clock).
  // Returns the number appended; 0 means the source is exhausted
  // (replay past the end — live sources never return 0 for
  // max_packets > 0).
  std::size_t NextBatch(std::size_t max_packets,
                        std::vector<net::Packet>& packets, double& now_s);

  std::uint64_t emitted() const { return emitted_; }

 private:
  enum class Mode : std::uint8_t { kLive, kReplay };

  explicit TrafficSource(Mode mode) : mode_(mode) {}

  Mode mode_;
  std::uint64_t emitted_ = 0;
  Trace* record_ = nullptr;
  std::vector<std::uint8_t> frame_;  // synthesis scratch, reused

  // kLive
  WorkloadConfig config_{};
  std::unique_ptr<FlowPopulation> population_;
  std::unique_ptr<ZipfSampler> zipf_;
  std::unique_ptr<analognf::RandomStream> arrival_rng_;
  std::unique_ptr<net::ArrivalProcess> arrivals_;
  std::unique_ptr<analognf::RandomStream> rng_;

  // kReplay
  Trace trace_{};
  std::size_t next_record_ = 0;
};

}  // namespace analognf::traffic
