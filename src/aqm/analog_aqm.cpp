#include "analognf/aqm/analog_aqm.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

namespace analognf::aqm {
namespace {

// Energy per DAC conversion (charged to the analog front-end).
constexpr double kDacEnergyJ = 1.0e-12;
// Energy per derivative-stage sample: the memristive differentiator of
// Fig. 6 is an RC-coupled analog block, not free; ~0.1 pJ per
// stage-update at these bandwidths.
constexpr double kDerivativeEnergyJ = 0.1e-12;
// Sojourn and buffer features map onto [1, 4] V (Fig. 7a), derivative
// features onto [-2, 1] V (Fig. 7b).
constexpr analog::VoltageRange kFeatureRange{1.0, 4.0};
constexpr analog::VoltageRange kDerivativeRange{-2.0, 1.0};
// PDP at and above which an ECN-capable packet drops instead of marking.
constexpr double kEcnDropThreshold = 0.85;
// Buffer occupancy is normalised by this reference size.
constexpr double kBufferReferenceBytes = 150000.0;
// Analog bandwidth of the derivative chains.
constexpr double kDerivativeTimeConstantS = 0.005;
// Full-scale magnitudes of the 1st..3rd derivative features (sojourn in
// s/s, 1/s, 1/s^2; buffer chain scales are 2x these). Calibrated to ~2
// sigma of the feature distributions measured in a delay-controlled
// queue under bursty traffic, so the DAC range is used without constant
// saturation.
constexpr std::array<double, 3> kDerivativeFullScale = {2.0, 300.0,
                                                        50000.0};

// Stage-name helpers matching the paper's listings.
// Built with reserve + append: g++ 12 at -O3 reports a false -Wrestrict
// inside libstdc++'s operator+ for `literal + std::string`.
std::string DerivName(const std::string& base, std::size_t order) {
  if (order == 0) return base;
  const std::string n = order == 1 ? std::string() : std::to_string(order);
  std::string name;
  name.reserve(base.size() + 2 * n.size() + 6);
  name.append("d").append(n).append("/dt").append(n).append("(");
  return name.append(base).append(")");
}

}  // namespace

void AnalogAqmConfig::Validate() const {
  if (!(target_delay_s > 0.0) || !(max_deviation_s > 0.0)) {
    throw std::invalid_argument(
        "AnalogAqmConfig: target delay and deviation must be > 0");
  }
  if (max_deviation_s >= target_delay_s) {
    throw std::invalid_argument(
        "AnalogAqmConfig: deviation must be below the target delay");
  }
  if (derivative_orders > 3) {
    throw std::invalid_argument("AnalogAqmConfig: derivative_orders > 3");
  }
  hardware.Validate();
}

std::optional<core::PcamParams> AnalogAqm::BandProgram(double lo_s,
                                                      double hi_s) const {
  // Feature domain [0, 2*(target+deviation)] maps onto kFeatureRange.
  // The ramp rises from 0 at lo_s to 1 at hi_s; M3/M4 sit above the
  // DAC's maximum output so in-range inputs never reach the falling edge
  // (the cell saturates at pmax for severe congestion).
  const AnalogAqmConfig& c = config_;
  const double domain_hi = 2.0 * (c.target_delay_s + c.max_deviation_s);
  const analog::LinearMap sojourn_map(0.0, domain_hi, kFeatureRange);
  const double v_lo = sojourn_map.ToVoltage(lo_s);
  const double v_hi = sojourn_map.ToVoltage(hi_s);
  if (!(v_lo < v_hi)) return std::nullopt;
  const double v_max = kFeatureRange.hi_v;
  return core::PcamParams::MakeTrapezoid(v_lo, v_hi, v_max + 0.5,
                                         v_max + 1.0, /*pmax=*/1.0,
                                         /*pmin=*/0.0);
}

bool AnalogAqm::ProgramBand(double lo_s, double hi_s) {
  const std::optional<core::PcamParams> program = BandProgram(lo_s, hi_s);
  if (!program.has_value()) return false;
  table_->UpdatePcam("sojourn_time", *program);
  return true;
}

core::AnalogTableSpec AnalogAqm::BuildSpec() const {
  const AnalogAqmConfig& c = config_;
  core::AnalogTableSpec spec;
  spec.name = "analogAQM";
  spec.combine = c.combine;

  // --- Base sojourn stage: the PDP ramp over target -/+ deviation. -----
  // Validate() keeps 0 < deviation < target, so the band never clamps.
  spec.read.push_back({DerivName("sojourn_time", 0),
                       BandProgram(c.target_delay_s - c.max_deviation_s,
                                   c.target_delay_s + c.max_deviation_s)
                           .value()});

  // --- Sojourn derivative stages: neutral-at-zero modulators. ----------
  // A derivative of 0 maps to output 1.0; strongly positive derivatives
  // (congestion building) push the stage toward pmax = 1.5, strongly
  // negative ones (queue draining) toward pmin = 0.5. Under the product
  // rule they scale the base PDP without ever being able to zero it out.
  // Modulator gain shrinks with derivative order: each differentiation
  // stage amplifies sampling noise, so the 2nd/3rd-order features get a
  // progressively smaller say (their rails sit closer to the neutral 1.0).
  const double dv_max = kDerivativeRange.hi_v;
  static constexpr double kSojournGain[] = {0.5, 0.2, 0.1};
  for (std::size_t order = 1; order <= c.derivative_orders; ++order) {
    const double fs = kDerivativeFullScale[order - 1];
    const double gain = kSojournGain[order - 1];
    const analog::LinearMap dmap(-fs, fs, kDerivativeRange);
    spec.read.push_back(
        {DerivName("sojourn_time", order),
         core::PcamParams::MakeTrapezoid(
             dmap.ToVoltage(-0.5 * fs), dmap.ToVoltage(0.5 * fs),
             dv_max + 0.5, dv_max + 1.0, /*pmax=*/1.0 + gain,
             /*pmin=*/1.0 - gain)});
  }

  // --- Buffer occupancy stage: drop booster. ---------------------------
  // Below ~50% occupancy the stage is neutral (1.0); it rises to 1.5
  // as the buffer approaches its reference size. pmin = 1.0 means the
  // buffer can only amplify the sojourn-driven decision, never veto it.
  const analog::LinearMap bmap(0.0, 1.5, kFeatureRange);
  const double v_max = kFeatureRange.hi_v;
  spec.read.push_back(
      {DerivName("buffer_size", 0),
       core::PcamParams::MakeTrapezoid(bmap.ToVoltage(0.5),
                                       bmap.ToVoltage(1.0), v_max + 0.5,
                                       v_max + 1.0, /*pmax=*/1.5,
                                       /*pmin=*/1.0)});
  // Buffer derivative modulators (occupancy-fraction rates; a queue
  // swings occupancy roughly twice as fast as it swings sojourn).
  // Same order-graded gains, at 60% of the sojourn family's weight.
  static constexpr double kBufferGain[] = {0.3, 0.12, 0.06};
  for (std::size_t order = 1; order <= c.derivative_orders; ++order) {
    const double fs = 2.0 * kDerivativeFullScale[order - 1];
    const double gain = kBufferGain[order - 1];
    const analog::LinearMap dmap(-fs, fs, kDerivativeRange);
    spec.read.push_back(
        {DerivName("buffer_size", order),
         core::PcamParams::MakeTrapezoid(
             dmap.ToVoltage(-0.5 * fs), dmap.ToVoltage(0.5 * fs),
             dv_max + 0.5, dv_max + 1.0, /*pmax=*/1.0 + gain,
             /*pmin=*/1.0 - gain)});
  }
  return spec;
}

void AnalogAqm::BuildDacs() {
  const AnalogAqmConfig& c = config_;
  dacs_.clear();
  const double domain_hi = 2.0 * (c.target_delay_s + c.max_deviation_s);
  std::uint64_t salt = 0;
  auto add_dac = [&](const analog::LinearMap& map) {
    dacs_.emplace_back(map, c.dac_bits, c.dac_inl_sigma_lsb,
                       c.hardware.seed ^ (0xdacdacULL + salt++));
  };

  add_dac(analog::LinearMap(0.0, domain_hi, kFeatureRange));
  for (std::size_t order = 1; order <= c.derivative_orders; ++order) {
    const double fs = kDerivativeFullScale[order - 1];
    add_dac(analog::LinearMap(-fs, fs, kDerivativeRange));
  }
  add_dac(analog::LinearMap(0.0, 1.5, kFeatureRange));
  for (std::size_t order = 1; order <= c.derivative_orders; ++order) {
    const double fs = 2.0 * kDerivativeFullScale[order - 1];
    add_dac(analog::LinearMap(-fs, fs, kDerivativeRange));
  }
}

AnalogAqm::AnalogAqm(AnalogAqmConfig config)
    : config_([&] {
        config.Validate();
        return config;
      }()),
      rng_(config_.hardware.seed),
      sojourn_chain_(std::max<std::size_t>(config_.derivative_orders, 1),
                     kDerivativeTimeConstantS),
      buffer_chain_(std::max<std::size_t>(config_.derivative_orders, 1),
                    kDerivativeTimeConstantS) {
  core::HardwarePcamConfig hardware = config_.hardware;
  hardware.seed ^= 0x9cab;
  table_ = std::make_unique<core::AnalogMatchActionTable>(BuildSpec(),
                                                          hardware);
  BuildDacs();
  if (dacs_.size() != table_->spec().read.size()) {
    throw std::logic_error("AnalogAqm: DAC/field count mismatch");
  }
  chain_stages_ = static_cast<double>(sojourn_chain_.max_order() +
                                      buffer_chain_.max_order());
  chain_ops_ = static_cast<std::uint64_t>(chain_stages_);
  derivative_energy_per_decision_j_ = kDerivativeEnergyJ * chain_stages_;
  dac_energy_per_decision_j_ =
      kDacEnergyJ * static_cast<double>(dacs_.size());
  derivative_meter_ = ledger_.Meter("analog.derivative");
  dac_meter_ = ledger_.Meter(energy::category::kDacConvert);
  pcam_meter_ = ledger_.Meter(energy::category::kPcamSearch);
}

std::vector<double> AnalogAqm::FeaturesToVoltages(
    const std::vector<double>& sojourn_derivs,
    const std::vector<double>& buffer_derivs) {
  std::vector<double> volts;
  FeaturesToVoltagesInto(sojourn_derivs, buffer_derivs, volts);
  return volts;
}

void AnalogAqm::FeaturesToVoltagesInto(
    const std::vector<double>& sojourn_derivs,
    const std::vector<double>& buffer_derivs, std::vector<double>& volts) {
  const std::size_t per_family = config_.derivative_orders + 1;
  if (sojourn_derivs.size() < per_family ||
      buffer_derivs.size() < per_family) {
    throw std::invalid_argument(
        "AnalogAqm::FeaturesToVoltages: not enough derivative values");
  }
  volts.clear();
  volts.reserve(dacs_.size());
  std::size_t dac = 0;
  for (std::size_t k = 0; k < per_family; ++k) {
    volts.push_back(dacs_[dac++].Convert(sojourn_derivs[k]));
  }
  for (std::size_t k = 0; k < per_family; ++k) {
    volts.push_back(dacs_[dac++].Convert(buffer_derivs[k]));
  }
  dac_meter_->energy_j += dac_energy_per_decision_j_;
  dac_meter_->operations += volts.size();
}

double AnalogAqm::EvaluatePdp(const std::vector<double>& features_v) {
  table_->Apply(features_v, apply_scratch_);
  pcam_meter_->energy_j += apply_scratch_.energy_j;
  pcam_meter_->operations += 1;
  return std::clamp(apply_scratch_.value, 0.0, 1.0);
}

bool AnalogAqm::ReplaysDecision(const AqmContext& ctx) {
  core::PcamPipeline& pipeline = table_->pipeline();
  if (!replay_ok_ || ctx.now_s != replay_now_s_ ||
      ctx.sojourn_s != replay_sojourn_s_ ||
      ctx.queue_bytes != replay_queue_bytes_ ||
      pipeline.evaluations() != replay_evaluation_ ||
      !pipeline.ReplayLast()) {
    return false;
  }
  // The full path's charges, category by category, with the same addends.
  derivative_meter_->energy_j += derivative_energy_per_decision_j_;
  derivative_meter_->operations += chain_ops_;
  dac_meter_->energy_j += dac_energy_per_decision_j_;
  dac_meter_->operations += dacs_.size();
  pcam_meter_->energy_j += apply_scratch_.energy_j;
  pcam_meter_->operations += 1;
  replay_evaluation_ = pipeline.evaluations();
  return true;
}

AqmVerdict AnalogAqm::DecideOnEnqueue(const AqmContext& ctx) {
  double pdp;
  if (ReplaysDecision(ctx)) {
    pdp = std::clamp(apply_scratch_.value, 0.0, 1.0);
  } else {
    // Analog feature extraction: advance both derivative chains with the
    // current queue observations.
    const std::vector<double>& sojourn =
        sojourn_chain_.Step(ctx.now_s, ctx.sojourn_s);
    const std::vector<double>& buffer = buffer_chain_.Step(
        ctx.now_s,
        static_cast<double>(ctx.queue_bytes) / kBufferReferenceBytes);
    // The analog differentiator stages dissipate per sample (both
    // chains); the charge is configuration-constant, precomputed at
    // construction.
    derivative_meter_->energy_j += derivative_energy_per_decision_j_;
    derivative_meter_->operations += chain_ops_;

    FeaturesToVoltagesInto(sojourn, buffer, volts_scratch_);
    pdp = EvaluatePdp(volts_scratch_);
    replay_ok_ = config_.dac_inl_sigma_lsb == 0.0;
    replay_now_s_ = ctx.now_s;
    replay_sojourn_s_ = ctx.sojourn_s;
    replay_queue_bytes_ = ctx.queue_bytes;
    replay_evaluation_ = table_->pipeline().evaluations();
  }
  if (ctx.packet.priority >= 4) pdp *= kHighPriorityRelief;
  last_pdp_ = pdp;
  if (!rng_.NextBernoulli(pdp)) return AqmVerdict::kAccept;
  // Congestion signalled on this packet: mark if ECN applies and the
  // congestion is not yet severe, else drop.
  if (config_.ecn_enabled && ctx.packet.ecn_capable &&
      pdp < kEcnDropThreshold) {
    return AqmVerdict::kMark;
  }
  return AqmVerdict::kDrop;
}

}  // namespace analognf::aqm
