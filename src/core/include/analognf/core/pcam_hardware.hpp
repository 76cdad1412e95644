// Hardware-backed pCAM cell: the ideal transfer function of pcam_cell.hpp
// realised on memristor devices.
//
// Physical mapping (following the analog-CAM circuit literature the paper
// builds on [30, 40]): the deterministic match window [M2, M3] is stored
// as the states of two memristors — a low-bound and a high-bound device —
// while the probabilistic skirt widths (M1..M2 and M3..M4) and the output
// rails pmax/pmin are set by the sense amplifier's programmable gain.
// Consequences modelled here:
//
//   * Quantisation: a device offers a finite ladder of reliable states,
//     so the programmed M2/M3 snap to the nearest rung (effective_params
//     exposes the snapped function; RQ2's precision discussion).
//   * Read energy: every search drives the input voltage across both
//     devices, dissipating V^2 (G_lo + G_hi) t_read — the quantity the
//     Sec. 6 energy analysis measures on the Nb:SrTiO3 dataset.
//   * Signal integrity: the search line passes through an AnalogChannel
//     (line loss / interference / AWGN) before reaching the cell.
//   * Programming cost: reprogramming thresholds consumes pulse energy,
//     accounted separately (the controller pays it, not the data path).
#pragma once

#include <cstdint>
#include <cstring>
#include <vector>

#include "analognf/analog/noise.hpp"
#include "analognf/analog/signal.hpp"
#include "analognf/core/pcam_cell.hpp"
#include "analognf/device/memristor.hpp"
#include "analognf/device/quantizer.hpp"

namespace analognf::core {

// The voltage span thresholds live in (DAC output range feeding the
// search lines): the union of the feature ranges of Fig. 7a and 7b.
// Thresholds outside it clamp.
inline constexpr analog::VoltageRange kPcamInputRange{-2.0, 4.0};

// Construction-time configuration of a hardware cell.
struct HardwarePcamConfig {
  device::MemristorParams device = device::MemristorParams::NbSrTiO3();
  // Reliable programmable states per device.
  std::size_t state_levels = 64;
  // Search-line signal integrity.
  analog::ChannelParams channel = analog::ChannelParams::Ideal();
  // Per-cell device-to-device variation (applied at construction): the
  // default DeviceVariation spread.
  bool apply_device_variation = false;
  std::uint64_t seed = 0x9cab;

  void Validate() const;  // throws std::invalid_argument
};

// Replay test of the search memos (PcamTable::Search,
// PcamPipeline::Evaluate): true iff both input vectors hold the same bit
// patterns. A replay must only serve an input a recompute would see as
// the same, so -0.0 and 0.0 differ and a NaN equals its own bits.
inline bool SameBits(const std::vector<double>& a,
                     const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Output of one hardware evaluation.
struct PcamEvalResult {
  double output = 0.0;
  double energy_j = 0.0;     // search energy dissipated in the devices
  MatchRegion region = MatchRegion::kMismatchLow;
};

class HardwarePcamCell {
 public:
  // Programs the cell to approximate `target`. Thresholds M2/M3 are
  // quantised onto device states; M1/M4 keep the programmed skirt
  // widths relative to the snapped M2/M3.
  HardwarePcamCell(const PcamParams& target, HardwarePcamConfig config);

  // One search: transmit the input over the (possibly noisy) channel,
  // evaluate the snapped transfer function, dissipate read energy.
  PcamEvalResult Evaluate(double input_v);

  // True when the search-line channel is a pure per-sample gain: no RNG
  // draws, no crosstalk phase state. EvaluateStateless() is then exactly
  // Evaluate() with the channel call inlined away.
  bool stateless() const { return channel_.params().IsStateless(); }

  // Hot-path Evaluate() for stateless channels. Same arithmetic in the
  // same order as Evaluate() (line_v = input * gain is precisely what
  // AnalogChannel::Transmit computes when IsStateless()), and the same
  // searches_/search_energy_j_ accounting — results are bit-identical.
  // Callers must check stateless() first.
  PcamEvalResult EvaluateStateless(double input_v) {
    const double line_v = input_v * channel_.params().line_gain;
    PcamEvalResult result;
    result.energy_j =
        line_v * line_v * conductance_sum_s_ * config_.device.read_time_s;
    result.output = effective_.Evaluate(line_v);
    result.region = effective_.RegionOf(line_v);
    search_energy_j_ += result.energy_j;
    last_search_energy_j_ = result.energy_j;
    ++searches_;
    return result;
  }

  // Accounts a replayed search: a memo (PcamPipeline) served a bitwise
  // repeat of this cell's previous stateless search without evaluating
  // it. The modelled hardware still drove the search line, so the
  // counters advance exactly as that search did, with its stored energy.
  // Valid only while the cell is unchanged since that search (no
  // Program() or Age() in between).
  void NoteReplaySearch() {
    search_energy_j_ += last_search_energy_j_;
    ++searches_;
  }

  // Reprogram (update_pCAM). Accumulates programming energy.
  void Program(const PcamParams& target);

  // Ages the cell by `dt_s` of wall time: the threshold devices relax
  // per their retention model and the realised transfer function shifts
  // accordingly. A controller counters this with periodic Program()
  // refreshes. No-op for ideal-retention devices.
  void Age(double dt_s);

  // The transfer function actually realised after quantisation.
  const PcamParams& effective_params() const { return effective_.params(); }
  // What the controller asked for.
  const PcamParams& target_params() const { return target_; }

  // Search energy for a given line voltage with the current states.
  double SearchEnergyJ(double input_v) const;

  // Combined conductance of both threshold devices, G_lo + G_hi. Cached
  // at (re)programming/aging time so the per-search energy term is a
  // multiply instead of two exponentials; the search-engine snapshot
  // reads it straight into its structure-of-arrays layout.
  double ConductanceSumS() const { return conductance_sum_s_; }

  // The cell's search-line channel. The search engine drives it directly
  // so that engine searches consume exactly the noise stream per-cell
  // Evaluate() calls would have.
  analog::AnalogChannel& channel() { return channel_; }

  // Cumulative energies since construction.
  double ConsumedSearchEnergyJ() const { return search_energy_j_; }
  double ConsumedProgrammingEnergyJ() const { return program_energy_j_; }
  std::uint64_t searches() const { return searches_; }

  const device::Memristor& low_device() const { return low_; }
  const device::Memristor& high_device() const { return high_; }

 private:
  // Maps a threshold voltage onto a device state and back, returning the
  // snapped voltage actually stored.
  double SnapThreshold(double threshold_v, device::Memristor& dev);
  void Reprogram(const PcamParams& target);

  HardwarePcamConfig config_;
  device::StateQuantizer quantizer_;
  device::Memristor low_;    // stores M2 (low bound of the match window)
  device::Memristor high_;   // stores M3 (high bound)
  PcamParams target_;
  PcamCell effective_;
  analog::AnalogChannel channel_;
  double conductance_sum_s_ = 0.0;
  double search_energy_j_ = 0.0;
  double last_search_energy_j_ = 0.0;  // what NoteReplaySearch() charges
  double program_energy_j_ = 0.0;
  std::uint64_t searches_ = 0;
};

}  // namespace analognf::core
