#include "analognf/aqm/wred.hpp"

#include <algorithm>

namespace analognf::aqm {

Wred::Wred(RedConfig high, RedConfig low, std::uint64_t seed)
    : high_{high, 0}, low_{low, 0}, avg_(low.queue_weight), rng_(seed) {
  high.Validate();
  low.Validate();
}

bool Wred::Decide(Profile& profile, double avg_pkts) {
  const RedConfig& c = profile.config;
  double base_p;
  if (avg_pkts < c.min_threshold_pkts) {
    base_p = 0.0;
  } else if (avg_pkts < c.max_threshold_pkts) {
    base_p = c.max_p * (avg_pkts - c.min_threshold_pkts) /
             (c.max_threshold_pkts - c.min_threshold_pkts);
  } else if (avg_pkts < 2.0 * c.max_threshold_pkts) {
    base_p = c.max_p + (1.0 - c.max_p) *
                           (avg_pkts - c.max_threshold_pkts) /
                           c.max_threshold_pkts;
  } else {
    base_p = 1.0;
  }

  if (base_p <= 0.0) {
    profile.count_since_drop = 0;
    last_p_ = 0.0;
    return false;
  }
  if (base_p >= 1.0) {
    profile.count_since_drop = 0;
    last_p_ = 1.0;
    return true;
  }
  const double denom =
      1.0 - static_cast<double>(profile.count_since_drop) * base_p;
  const double p = denom <= 0.0 ? 1.0 : std::min(1.0, base_p / denom);
  last_p_ = p;
  if (rng_.NextBernoulli(p)) {
    profile.count_since_drop = 0;
    return true;
  }
  ++profile.count_since_drop;
  return false;
}

AqmVerdict Wred::DecideOnEnqueue(const AqmContext& ctx) {
  const double avg = avg_.Update(static_cast<double>(ctx.queue_packets));
  return Decide(ctx.packet.priority >= 4 ? high_ : low_, avg)
             ? AqmVerdict::kDrop
             : AqmVerdict::kAccept;
}

}  // namespace analognf::aqm
