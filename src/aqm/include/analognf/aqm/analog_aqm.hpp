// The paper's proof-of-concept: pCAM-based analog AQM (Sec. 5, Fig. 6).
//
// Data path per packet admission:
//
//   sojourn time  --+--> d/dt --> d2/dt2 --> d3/dt3   (analog derivative
//   buffer size   --+--> d/dt --> d2/dt2 --> d3/dt3    chains, Fig. 6)
//        |               |
//        v               v
//      DACs map every feature onto its hardware voltage range
//        |
//        v
//      analog match-action table: one pCAM stage per feature
//      (table analogAQM { read{...} output{AQM()} action{update_pCAM()} })
//        |
//        v
//      PDP = clamp(product of stage outputs, 0, 1); priority relief;
//      Bernoulli drop.
//
// Stage programming follows the paper's example: the cell is programmed
// with a 20 ms average-delay target and 10 ms maximum deviation; the
// sojourn base stage ramps the PDP from 0 at (target - deviation) to 1
// at (target + deviation). Derivative and buffer stages are *modulator*
// stages: their transfer functions are programmed to output 1.0 when the
// feature is quiescent (pmin..pmax straddling 1), so under the product
// rule they amplify drops while congestion builds and attenuate them
// while the queue drains. EXPERIMENTS.md discusses why the product
// composition requires this.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analognf/analog/converter.hpp"
#include "analognf/analog/differentiator.hpp"
#include "analognf/aqm/aqm.hpp"
#include "analognf/common/rng.hpp"
#include "analognf/core/program.hpp"
#include "analognf/energy/ledger.hpp"

namespace analognf::aqm {

struct AnalogAqmConfig {
  // The programmed latency bound (Fig. 8: 20 ms +/- 10 ms).
  double target_delay_s = 0.020;
  double max_deviation_s = 0.010;

  // Derivative orders per feature (0 = base feature only, up to 3 as in
  // the paper). Ablation A sweeps this.
  std::size_t derivative_orders = 3;

  // DAC resolution and integral nonlinearity. Sojourn/buffer features
  // map onto [1,4] V (Fig. 7a), derivatives onto [-2,1] V (Fig. 7b).
  unsigned dac_bits = 10;
  double dac_inl_sigma_lsb = 0.0;

  // Combine rule across stages (the paper's series pCAM = product).
  core::CombineMode combine = core::CombineMode::kProduct;
  // pCAM hardware (device model, state levels, channel noise...). Its
  // `seed` is the AQM's one seed: it seeds the drop draws and the DACs'
  // INL, and the table's hardware gets `seed ^ 0x9cab`.
  core::HardwarePcamConfig hardware{.seed = 0xa0a051};

  // ECN: when enabled, ECN-capable packets whose PDP falls below 0.85
  // are CE-marked instead of dropped; above it the congestion is
  // considered severe and the packet drops regardless (mirrors PIE's
  // mark/drop split).
  bool ecn_enabled = false;

  void Validate() const;  // throws std::invalid_argument
};

class AnalogAqm final : public AqmPolicy {
 public:
  // "High priority traffic gets lower drop probability": multiplier
  // applied to the PDP of packets with priority >= 4.
  static constexpr double kHighPriorityRelief = 0.5;

  explicit AnalogAqm(AnalogAqmConfig config);

  // A context whose now_s, sojourn_s and queue_bytes equal the previous
  // decision's replays that decision's PDP instead of re-deriving it
  // (see ReplaysDecision); only the Bernoulli draw is new.
  AqmVerdict DecideOnEnqueue(const AqmContext& ctx) override;
  double LastDropProbability() const override { return last_pdp_; }

  // Computes the PDP for a context without consuming randomness or
  // updating derivative state — the pure pipeline evaluation used by the
  // Fig. 7 transfer-function sweeps. It leaves the pipeline holding
  // `features_v`, so the next decision re-derives its PDP.
  double EvaluatePdp(const std::vector<double>& features_v);

  // Feature vector (voltages, in table order) for the given raw
  // sojourn/buffer derivative values. Exposed for the benches.
  std::vector<double> FeaturesToVoltages(
      const std::vector<double>& sojourn_derivs,
      const std::vector<double>& buffer_derivs);

  // update_pCAM for a new delay band (Sec. 5): reprograms the sojourn
  // stage to ramp the PDP from 0 at lo_s to 1 at hi_s, as construction
  // programs it for target -/+ deviation. The sojourn feature's voltage
  // map is fixed at construction, so band edges outside its domain clamp
  // at the rails. Returns false, and changes nothing, when the band maps
  // to no rising ramp: both edges clamp to one rail, or lo_s >= hi_s.
  bool ProgramBand(double lo_s, double hi_s);

  // The compiled analog match-action table (to inspect or update_pCAM).
  core::AnalogMatchActionTable& table() { return *table_; }
  const core::AnalogMatchActionTable& table() const { return *table_; }

  const AnalogAqmConfig& config() const { return config_; }
  const energy::EnergyLedger& ledger() const { return ledger_; }

  // Total pCAM + DAC + derivative energy consumed so far: the same
  // double as ledger().TotalJ(), without the map walk. The ledger holds
  // exactly the three metered categories, summed here in its key order
  // ("analog.dac" < "analog.derivative" < "pcam.search"). The traffic
  // manager reads this twice per admitted packet.
  double ConsumedEnergyJ() const {
    return dac_meter_->energy_j + derivative_meter_->energy_j +
           pcam_meter_->energy_j;
  }

 private:
  // The sojourn stage's program for the band [lo_s, hi_s]; nullopt when
  // it maps to no rising ramp (see ProgramBand).
  std::optional<core::PcamParams> BandProgram(double lo_s,
                                              double hi_s) const;
  core::AnalogTableSpec BuildSpec() const;
  void BuildDacs();
  // Fills `volts` (table order) without allocating.
  void FeaturesToVoltagesInto(const std::vector<double>& sojourn_derivs,
                              const std::vector<double>& buffer_derivs,
                              std::vector<double>& volts);
  // Decision replay. With the same clock, head sojourn and occupancy as
  // the previous decision, the derivative chains hold (dt = 0) and take
  // the same inputs, noise-free DACs convert the same features to the
  // same voltages, and the pipeline would search those voltages again.
  // So when the pipeline still holds that decision's search (no
  // evaluation, update_pCAM or cell access since: PcamPipeline::
  // ReplayLast), this advances every meter exactly as the full path
  // does and returns true; apply_scratch_, which only an evaluation
  // writes, still holds that search's result.
  bool ReplaysDecision(const AqmContext& ctx);

  AnalogAqmConfig config_;
  analognf::RandomStream rng_;
  analog::DerivativeChain sojourn_chain_;
  analog::DerivativeChain buffer_chain_;
  std::unique_ptr<core::AnalogMatchActionTable> table_;
  std::vector<analog::Dac> dacs_;  // one per read field, in table order
  energy::EnergyLedger ledger_;
  double last_pdp_ = 0.0;
  // Per-packet scratch, reused across DecideOnEnqueue calls so the data
  // path stays allocation-free after warm-up.
  std::vector<double> volts_scratch_;
  core::AnalogMatchActionTable::Output apply_scratch_;
  // Cached ledger meters: every decision records into the same three
  // categories, so the per-call string lookups of Record() are hoisted
  // into stable CategoryTotal pointers.
  energy::CategoryTotal* derivative_meter_ = nullptr;
  energy::CategoryTotal* dac_meter_ = nullptr;
  energy::CategoryTotal* pcam_meter_ = nullptr;
  // The derivative-chain and DAC charges are the same every decision;
  // precomputed.
  double chain_stages_ = 0.0;
  std::uint64_t chain_ops_ = 0;
  double derivative_energy_per_decision_j_ = 0.0;
  double dac_energy_per_decision_j_ = 0.0;
  // The previous full-path decision's key, and the pipeline's
  // evaluations() right after it (or after its last replay).
  // ReplaysDecision may replay it only when the DACs are noise-free (a
  // noisy DAC draws on every conversion).
  bool replay_ok_ = false;
  double replay_now_s_ = 0.0;
  double replay_sojourn_s_ = 0.0;
  std::uint64_t replay_queue_bytes_ = 0;
  std::uint64_t replay_evaluation_ = 0;
};

}  // namespace analognf::aqm
