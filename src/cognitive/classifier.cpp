#include "analognf/cognitive/classifier.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace analognf::cognitive {
namespace {

// Feature-to-voltage domains. Sizes up to jumbo-ish, inter-arrivals from
// 10 us to 1 s on a log axis, burstiness 0..5.
constexpr double kMaxSizeBytes = 2000.0;
constexpr double kLogIatLo = -5.0;  // log10(10 us)
constexpr double kLogIatHi = 0.0;   // log10(1 s)
constexpr double kMaxBurstiness = 5.0;

double LogIat(double iat_s) {
  return std::log10(std::max(iat_s, 1e-6));
}

}  // namespace

FlowTracker::FlowTracker(std::size_t capacity) : table_(capacity) {}

// Welford updates in the exact expressions and order of
// RunningStats::Add, so the features are bit-identical to RunningStats
// over the same samples (FlowTrackerTest.GoldenDigestOfZipfStream).
void FlowTracker::ObserveInto(FlowState& state,
                              const net::PacketMeta& packet) {
  const bool has_arrival = state.size_count != 0;
  const double size = packet.size_bytes;
  ++state.size_count;
  const double size_delta = size - state.size_mean;
  state.size_mean += size_delta / static_cast<double>(state.size_count);
  if (has_arrival) {
    const double gap = packet.arrival_time_s - state.last_arrival_s;
    if (gap >= 0.0) {
      ++state.gap_count;
      const double delta = gap - state.gap_mean;
      state.gap_mean += delta / static_cast<double>(state.gap_count);
      state.gap_m2 += delta * (gap - state.gap_mean);
    }
  }
  state.last_arrival_s = packet.arrival_time_s;
}

FlowFeatures FlowTracker::FeaturesOf(const FlowState& state) {
  FlowFeatures out;
  out.packets = state.size_count;
  out.mean_packet_size_bytes = state.size_mean;
  if (state.gap_count != 0) {
    out.mean_interarrival_s = state.gap_mean;
    if (state.gap_mean > 0.0) {
      const double variance =
          state.gap_count < 2
              ? 0.0
              : state.gap_m2 / static_cast<double>(state.gap_count - 1);
      out.burstiness = std::sqrt(variance) / state.gap_mean;
    }
  }
  return out;
}

void FlowTracker::Observe(const net::PacketMeta& packet) {
  ObserveInto(*table_.FindOrInsert(
                  packet.flow_hash,
                  common::FlowTable<FlowState>::HashOf(packet.flow_hash)),
              packet);
}

FlowFeatures FlowTracker::Features(std::uint64_t flow_hash) const {
  const FlowState* state = table_.Find(
      flow_hash, common::FlowTable<FlowState>::HashOf(flow_hash));
  if (state == nullptr) return FlowFeatures{};
  return FeaturesOf(*state);
}

void FlowTracker::ObserveBatch(const net::PacketMeta* packets,
                               std::size_t count, FlowFeatures* features) {
  key_scratch_.resize(count);
  hash_scratch_.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    key_scratch_[i] = packets[i].flow_hash;
  }
  simd::FlowHashBatch(key_scratch_.data(), hash_scratch_.data(), count);
  for (std::size_t i = 0; i < count; ++i) table_.Prefetch(hash_scratch_[i]);
  // Packet order is preserved, so two packets of one flow in the same
  // batch see each other's updates exactly as sequential calls would.
  for (std::size_t i = 0; i < count; ++i) {
    FlowState& state =
        *table_.FindOrInsert(packets[i].flow_hash, hash_scratch_[i]);
    ObserveInto(state, packets[i]);
    features[i] = FeaturesOf(state);
  }
}

AnalogTrafficClassifier::AnalogTrafficClassifier(
    core::HardwarePcamConfig hardware, double skirt_fraction)
    : skirt_fraction_(skirt_fraction),
      size_map_(0.0, kMaxSizeBytes, core::kPcamInputRange),
      iat_map_(kLogIatLo, kLogIatHi, core::kPcamInputRange),
      burst_map_(0.0, kMaxBurstiness, core::kPcamInputRange),
      table_(/*field_count=*/3, hardware) {
  if (!(skirt_fraction > 0.0)) {
    throw std::invalid_argument(
        "AnalogTrafficClassifier: skirt_fraction <= 0");
  }
}

std::size_t AnalogTrafficClassifier::AddClass(const ClassSpec& spec) {
  if (!(spec.size_lo_bytes < spec.size_hi_bytes) ||
      !(spec.iat_lo_s < spec.iat_hi_s) ||
      !(spec.burst_lo < spec.burst_hi)) {
    throw std::invalid_argument(
        "AnalogTrafficClassifier: class bands must have lo < hi");
  }
  auto band = [this](const analog::LinearMap& map, double lo,
                     double hi) {
    const double v_lo = map.ToVoltage(lo);
    const double v_hi = map.ToVoltage(hi);
    const double width = std::max(v_hi - v_lo, 1e-3);
    const double skirt = width * skirt_fraction_;
    return core::PcamParams::MakeTrapezoid(v_lo - skirt, v_lo, v_hi,
                                           v_hi + skirt);
  };
  core::PcamTable::Row row;
  row.label = spec.label;
  row.fields = {
      band(size_map_, spec.size_lo_bytes, spec.size_hi_bytes),
      band(iat_map_, LogIat(spec.iat_lo_s), LogIat(spec.iat_hi_s)),
      band(burst_map_, spec.burst_lo, spec.burst_hi),
  };
  row.action = static_cast<std::uint32_t>(labels_.size());
  labels_.push_back(spec.label);
  const std::size_t index = table_.Insert(std::move(row));
  table_.Commit();
  return index;
}

std::optional<Classification> AnalogTrafficClassifier::Classify(
    const FlowFeatures& features, double min_confidence) {
  const std::vector<double> query = {
      size_map_.ToVoltage(features.mean_packet_size_bytes),
      iat_map_.ToVoltage(LogIat(features.mean_interarrival_s)),
      burst_map_.ToVoltage(features.burstiness),
  };
  const auto result = table_.Search(query);
  if (!result.has_value() || result->match_degree <= min_confidence) {
    return std::nullopt;
  }
  Classification out;
  out.class_index = result->action;
  out.label = labels_[result->action];
  out.confidence = std::min(result->match_degree, 1.0);
  return out;
}

void AnalogTrafficClassifier::ClassifyBatchInto(
    const FlowFeatures* features, std::size_t count, double min_confidence,
    std::vector<ClassifyOutcome>& out) {
  out.clear();
  out.resize(count);
  if (count == 0) return;
  // One flat row-major query block: the batched engine search sees a
  // SIMD-friendly layout and the quantisation loop has no per-packet
  // temporaries.
  query_scratch_.clear();
  query_scratch_.reserve(count * 3);
  for (std::size_t i = 0; i < count; ++i) {
    const FlowFeatures& f = features[i];
    query_scratch_.push_back(size_map_.ToVoltage(f.mean_packet_size_bytes));
    query_scratch_.push_back(
        iat_map_.ToVoltage(LogIat(f.mean_interarrival_s)));
    query_scratch_.push_back(burst_map_.ToVoltage(f.burstiness));
  }
  table_.SearchBatchFlatInto(query_scratch_.data(), count, result_scratch_);
  // Empty table (no registered classes): every outcome stays "no class"
  // with zero search energy, matching what per-packet Classify consumes.
  for (std::size_t i = 0; i < result_scratch_.size(); ++i) {
    const core::PcamTableResult& r = result_scratch_[i];
    out[i].energy_j = r.energy_j;
    if (r.match_degree <= min_confidence) continue;
    out[i].class_index = static_cast<std::int32_t>(r.action);
    out[i].confidence = std::min(r.match_degree, 1.0);
  }
}

}  // namespace analognf::cognitive
