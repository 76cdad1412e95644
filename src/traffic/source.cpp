#include "analognf/traffic/source.hpp"

#include <utility>

namespace analognf::traffic {

TrafficSource TrafficSource::Live(WorkloadConfig config) {
  config.Validate();
  TrafficSource src(Mode::kLive);
  src.config_ = config;
  src.population_ = std::make_unique<FlowPopulation>(config.population);
  src.zipf_ = std::make_unique<ZipfSampler>(config.population.flows,
                                            config.zipf_s);
  // Distinct sub-streams for the clock and the sampler so changing one
  // model never perturbs the other's draws.
  src.arrival_rng_ =
      std::make_unique<analognf::RandomStream>(config.seed ^ 0xa441u);
  src.arrivals_ = std::make_unique<net::ArrivalProcess>(config.arrivals,
                                                        *src.arrival_rng_);
  src.rng_ = std::make_unique<analognf::RandomStream>(config.seed);
  return src;
}

TrafficSource TrafficSource::Replay(Trace trace) {
  trace.population.Validate();
  TrafficSource src(Mode::kReplay);
  src.trace_ = std::move(trace);
  src.population_ = std::make_unique<FlowPopulation>(src.trace_.population);
  return src;
}

void TrafficSource::RecordTo(Trace* trace) {
  record_ = trace;
  if (record_ != nullptr) {
    record_->population =
        mode_ == Mode::kLive ? config_.population : trace_.population;
  }
}

std::size_t TrafficSource::NextBatch(std::size_t max_packets,
                                     std::vector<net::Packet>& packets,
                                     double& now_s) {
  std::size_t n = 0;
  for (; n < max_packets; ++n) {
    double arrival = 0.0;
    std::uint64_t flow = 0;
    std::uint32_t frame_bytes = 0;
    if (mode_ == Mode::kLive) {
      arrival = arrivals_->Next(*arrival_rng_);
      flow = zipf_->Sample(*rng_);
      frame_bytes = net::ImixBytes(*rng_);
    } else {
      if (next_record_ >= trace_.records.size()) break;
      const TraceRecord& r = trace_.records[next_record_++];
      arrival = r.arrival_s;
      flow = r.flow;
      frame_bytes = r.frame_bytes;
    }
    SynthesizeFrame(population_->Tuple(flow), frame_bytes, frame_);
    packets.emplace_back(frame_);
    now_s = arrival;
    ++emitted_;
    if (record_ != nullptr) {
      record_->records.push_back(TraceRecord{arrival, flow, frame_bytes});
    }
  }
  return n;
}

}  // namespace analognf::traffic
