// Weighted RED: the digital baseline for priority-differentiated
// dropping.
//
// The analog AQM gives high-priority traffic a lower drop probability
// via its priority-relief multiplier (Sec. 5). The established digital
// equivalent is WRED: one shared average-queue estimate, but separate
// threshold/max-p profiles per traffic class, so comparisons between the
// analog and digital priority mechanisms are like-for-like.
#pragma once

#include <cstdint>

#include "analognf/aqm/aqm.hpp"
#include "analognf/aqm/red.hpp"
#include "analognf/common/stats.hpp"

namespace analognf::aqm {

class Wred final : public AqmPolicy {
 public:
  // `high` applies to packets with priority >= 4, `low` to the rest.
  // Both profiles share one EWMA average-queue estimate (low profile's
  // queue_weight is used).
  Wred(RedConfig high, RedConfig low, std::uint64_t seed);

  AqmVerdict DecideOnEnqueue(const AqmContext& ctx) override;
  double LastDropProbability() const override { return last_p_; }

  double average_queue_pkts() const { return avg_.value(); }

 private:
  struct Profile {
    RedConfig config;
    std::uint64_t count_since_drop = 0;
  };

  bool Decide(Profile& profile, double avg_pkts);

  Profile high_;
  Profile low_;
  analognf::Ewma avg_;
  analognf::RandomStream rng_;
  double last_p_ = 0.0;
};

}  // namespace analognf::aqm
