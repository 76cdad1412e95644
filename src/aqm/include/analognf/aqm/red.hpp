// Random Early Detection (Floyd & Jacobson 1993), gentle variant: between
// max_th and 2*max_th the probability ramps from max_p to 1 instead of
// jumping to 1. Digital baseline AQM for the comparison benches.
#pragma once

#include <cstdint>

#include "analognf/aqm/aqm.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/common/stats.hpp"

namespace analognf::aqm {

struct RedConfig {
  // Thresholds on the EWMA average queue length, in packets.
  double min_threshold_pkts = 5.0;
  double max_threshold_pkts = 15.0;
  // Drop probability at max_threshold.
  double max_p = 0.1;
  // EWMA weight for the average queue estimate (RED's w_q).
  double queue_weight = 0.002;

  void Validate() const;  // throws std::invalid_argument
};

class Red final : public AqmPolicy {
 public:
  Red(RedConfig config, std::uint64_t seed);

  AqmVerdict DecideOnEnqueue(const AqmContext& ctx) override;
  double LastDropProbability() const override { return last_p_; }

  double average_queue_pkts() const { return avg_.value(); }

 private:
  // Marking probability for the current average queue estimate.
  double DropProbability(double avg_pkts);

  RedConfig config_;
  analognf::RandomStream rng_;
  analognf::Ewma avg_;
  // Packets since the last drop, for the uniform-spacing correction.
  std::uint64_t count_since_drop_ = 0;
  double last_p_ = 0.0;
};

}  // namespace analognf::aqm
