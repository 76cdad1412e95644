// Declarative AQM scenario grid: the shoot-out harness.
//
// The paper's headline result (Figs. 6-8) is the analog pCAM AQM
// holding its programmed 20 ms +/- 10 ms delay band at ~nJ/decision.
// This runner makes that claim a standing head-to-head: it sweeps
//
//   policy (x analog variant) x base RTT x load x ECN fraction
//
// in the style of L4STeam/aqmt's testbed collections, executing every
// cell on BOTH simulators — the open-loop Poisson QueueSimulator (the
// Fig. 8 workload, unresponsive) and the AIMD ClosedLoopSimulator
// (responsive sources, where ECN genuinely sheds load) — and reports
// per cell: delay-target adherence (fraction of post-warmup deliveries
// inside target +/- deviation), p50/p99 sojourn, drop/mark rates, Jain
// fairness, link utilization, and nJ per AQM decision.
//
// Axis semantics:
//  - base RTT sizes the bottleneck buffer (kBufferBdpMultiple x BDP,
//    the standard testbed provisioning rule), drives the closed loop's
//    propagation delay, and scales CoDel's interval (RFC 8289: interval
//    should cover the worst-case RTT).
//  - load carries one open-loop level (Poisson rate as a fraction of
//    link capacity) and one closed-loop level (AIMD source count).
//  - ECN fraction sets the share of ECN-capable traffic. Policies with
//    a native mark path (analog AQM, PI2) use it directly; PIE marks
//    below RFC 8033's mark_ecnth, RED marks all early drops (RFC 3168);
//    CoDel stays drop-only (marking at dequeue is not in the sim API).
//  - analog variants are named AnalogAqmConfig edits (derivative
//    orders, combine rule, channel noise, device imperfections) plus an
//    optional retention age, applied on top of the matched-target analog
//    config. Only analog cells fan out over them; every variant of a
//    cell shares the cell's seed, so all see the same arrivals.
//
// Energy: the analog AQM reports its own ledger (the aCAM cost model —
// DACs, derivative chains, pCAM search). Digital policies are wrapped
// in a metering harness that charges a DataMovementModel cost per
// decision over the policy's state footprint, so every cell's
// nJ/decision comes from an EnergyLedger with like-for-like categories.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/net/generator.hpp"
#include "analognf/sim/closed_loop.hpp"
#include "analognf/sim/queue_sim.hpp"

namespace analognf::sim {

// The policy axis. kRed is the gentle-RED single profile; kWred the
// priority-differentiated pair; kTailDrop the no-AQM reference; kLearned
// the self-learning crossbar perceptron (paper Sec. 8(2)).
enum class AqmPolicyKind {
  kAnalog,
  kPie,
  kPi2,
  kCodel,
  kRed,
  kWred,
  kTailDrop,
  kLearned,
};

const char* ToString(AqmPolicyKind kind);
// False for kAnalog, kTailDrop and kLearned: only digital policies
// enter the adherence margin.
bool IsDigital(AqmPolicyKind kind);

enum class GridSimulator { kOpenLoop, kClosedLoop };
const char* ToString(GridSimulator simulator);

// One point on the load axis: both simulators' levels travel together
// so a "cell" means the same nominal pressure on either harness.
struct GridLoad {
  std::string label;              // e.g. "0.9x" or "overload"
  double offered_fraction = 0.9;  // open loop: base rate / capacity
  std::size_t sources = 8;        // closed loop: AIMD source count
  // Open-loop arrival process; its rate_pps is overwritten with the
  // offered_fraction rate (an MMPP's bursts then add to it).
  net::ArrivalConfig arrivals{};
};

// A named analog-AQM variant: `configure` edits the grid's matched-
// target config (an empty function keeps it), and age_s ages every
// pipeline cell before the run (retention drift).
struct GridVariant {
  std::string label;
  std::function<void(aqm::AnalogAqmConfig&)> configure;
  double age_s = 0.0;
};

struct GridSpec {
  std::vector<AqmPolicyKind> policies;
  std::vector<double> base_rtts_s;
  std::vector<GridLoad> loads;
  std::vector<double> ecn_fractions;
  // Empty: one analog cell per coordinate, labelled "".
  std::vector<GridVariant> variants;

  // The bottleneck of every cell: a 10 Mb/s link carrying 1000-byte
  // segments, offered 16 Poisson flows on the open loop.
  static constexpr double kLinkRateBps = 10.0e6;
  static constexpr std::uint32_t kSegmentBytes = 1000;
  static constexpr std::uint32_t kOpenLoopFlows = 16;

  // The adherence band, and the delay target every policy is programmed
  // for (the analog AQM's pCAM ramp, PIE/PI2's target, CoDel's target,
  // RED's threshold placement) — matched targets, per the shoot-out's
  // like-for-like rule: the paper's 20 ms +/- 10 ms (Fig. 8).
  static constexpr double kTargetDelayS = 0.020;
  static constexpr double kMaxDeviationS = 0.010;

  // Bottleneck buffer: this many bandwidth-delay products of the cell's
  // base RTT (bytes). Ties the RTT axis into the open-loop harness too:
  // tail-drop headroom and worst-case standing delay scale with RTT.
  static constexpr double kBufferBdpMultiple = 4.0;

  double open_duration_s = 12.0;
  double open_warmup_s = 3.0;
  double closed_duration_s = 20.0;
  double closed_warmup_s = 6.0;

  std::uint64_t seed = 0x5107;

  void Validate() const;  // throws std::invalid_argument
  // (policies, with kAnalog counted once per variant) x rtts x loads x
  // ecns x 2
  std::size_t CellCount() const;

  // The checked-in CI grid: {analog, PIE, PI2, CoDel, RED} x
  // {10, 40, 100 ms} x {0.9x/4src, 1.4x/16src} x {0, 0.5, 1.0}.
  static GridSpec Default();
};

// One executed cell.
struct GridCellResult {
  AqmPolicyKind policy = AqmPolicyKind::kTailDrop;
  std::string variant;  // GridVariant label; "" outside analog variants
  GridSimulator simulator = GridSimulator::kOpenLoop;
  double base_rtt_s = 0.0;
  GridLoad load;
  double ecn_fraction = 0.0;

  // Fraction of post-warmup deliveries with sojourn inside
  // [target - deviation, target + deviation].
  double adherence = 0.0;
  double mean_sojourn_s = 0.0;
  double p50_sojourn_s = 0.0;
  double p99_sojourn_s = 0.0;
  double drop_rate = 0.0;  // all drops / offered
  double mark_rate = 0.0;  // CE marks / offered
  double fairness = 0.0;   // Jain index (flows open loop, sources closed)
  double utilization = 0.0;

  std::uint64_t offered_packets = 0;
  std::uint64_t delivered_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t marked_packets = 0;

  std::uint64_t decisions = 0;  // AQM decision-point invocations charged
  double energy_nj_per_decision = 0.0;
};

struct GridReport {
  GridSpec spec;
  std::vector<GridCellResult> cells;  // deterministic sweep order

  // Mean adherence of `policy` cells on `simulator` at load `label`,
  // averaged across the RTT and ECN axes. Returns -1 if no such cells.
  double MeanAdherence(AqmPolicyKind policy, GridSimulator simulator,
                       const std::string& load_label) const;
  // Analog adherence minus the best digital policy's, at matched
  // (simulator, load). Positive = the analog AQM holds its band at
  // least as well as the best digital baseline.
  double AdherenceMargin(GridSimulator simulator,
                         const std::string& load_label) const;
  // Worst margin across the load axis for one simulator — the gate the
  // bench budget watches.
  double MinAdherenceMargin(GridSimulator simulator) const;
};

class ExperimentGrid {
 public:
  explicit ExperimentGrid(GridSpec spec);

  // Runs every cell (policy-major, then RTT, load, ECN, variant; open
  // loop before closed loop). Deterministic: per-cell seeds are derived from
  // spec.seed and the cell's coordinates, so the same spec reproduces
  // the same report bit-for-bit.
  GridReport Run();

  // Optional per-cell progress hook (the bench uses it to stream rows).
  using CellCallback = std::function<void(const GridCellResult&)>;
  void SetCellCallback(CellCallback callback) {
    callback_ = std::move(callback);
  }

 private:
  GridCellResult RunCell(AqmPolicyKind policy, const GridVariant* variant,
                         GridSimulator simulator, double rtt_s,
                         const GridLoad& load, double ecn_fraction,
                         std::uint64_t cell_seed) const;

  GridSpec spec_;
  CellCallback callback_;
};

}  // namespace analognf::sim
