// Controlled Delay AQM (CoDel, RFC 8289). Digital baseline.
//
// CoDel watches the per-packet sojourn time at dequeue: once it has
// stayed above `target` for a full `interval`, the policy enters a
// dropping state and drops at intervals that shrink with the inverse
// square root of the drop count (the control law that gives CoDel its
// sojourn-time setpoint behaviour).
#pragma once

#include <cstdint>

#include "analognf/aqm/aqm.hpp"

namespace analognf::aqm {

struct CodelConfig {
  double target_s = 0.005;    // RFC 8289 TARGET (5 ms)
  double interval_s = 0.100;  // RFC 8289 INTERVAL (100 ms)

  void Validate() const;  // throws std::invalid_argument
};

class Codel final : public AqmPolicy {
 public:
  explicit Codel(CodelConfig config = {});

  bool ShouldDropOnDequeue(const AqmContext& ctx) override;

  bool dropping() const { return dropping_; }
  std::uint32_t drop_count() const { return count_; }

 private:
  double ControlLawNext(double t) const;

  CodelConfig config_;
  // RFC 8289 state machine.
  double first_above_time_s_ = 0.0;
  double drop_next_s_ = 0.0;
  std::uint32_t count_ = 0;
  std::uint32_t lastcount_ = 0;
  bool dropping_ = false;
};

}  // namespace analognf::aqm
