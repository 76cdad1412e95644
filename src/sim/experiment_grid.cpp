#include "analognf/sim/experiment_grid.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <utility>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/aqm/codel.hpp"
#include "analognf/aqm/pi2.hpp"
#include "analognf/aqm/pie.hpp"
#include "analognf/aqm/red.hpp"
#include "analognf/aqm/wred.hpp"
#include "analognf/common/stats.hpp"
#include "analognf/energy/ledger.hpp"
#include "analognf/energy/movement.hpp"
#include "analognf/net/generator.hpp"

namespace analognf::sim {
namespace {

// SplitMix64: per-cell seed derivation. Mixing the spec seed with the
// cell coordinates keeps every cell's random stream independent of grid
// shape edits (adding an RTT doesn't reshuffle the other cells).
std::uint64_t Mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t CellSeed(std::uint64_t base, std::uint64_t policy,
                       std::uint64_t rtt_idx, std::uint64_t load_idx,
                       std::uint64_t ecn_idx, std::uint64_t sim_idx) {
  std::uint64_t s = Mix(base ^ (policy << 1));
  s = Mix(s ^ (rtt_idx << 8));
  s = Mix(s ^ (load_idx << 16));
  s = Mix(s ^ (ecn_idx << 24));
  return Mix(s ^ (sim_idx << 32));
}

// How a digital policy is metered and ECN-adapted by the harness below.
struct HarnessSpec {
  // Controller state read-modified-written per decision (the operand the
  // DataMovementModel shuttles between SRAM and the ALU).
  std::uint64_t state_bits = 0;
  // Convert an ECN-capable packet's drop into a CE mark when the
  // policy's probability is strictly below this (RFC 8033's mark_ecnth
  // idea; RFC 3168 for RED). Negative = never mark (policy is either
  // drop-only or marks natively).
  double mark_threshold = -1.0;
  bool charge_enqueue = true;   // RED/PIE-family: decide at admission
  bool charge_dequeue = false;  // CoDel: decide at head departure
};

// Wraps a digital AQM so every decision point is charged a
// DataMovementModel cost into an EnergyLedger (compute + movement
// categories), making nJ/decision comparable with the analog ledger.
// Also retrofits RFC-style ECN marking onto drop-only enqueue policies.
class DigitalHarness final : public aqm::AqmPolicy {
 public:
  DigitalHarness(std::unique_ptr<aqm::AqmPolicy> inner, HarnessSpec spec)
      : inner_(std::move(inner)), spec_(spec) {
    const energy::MovementBreakdown cost =
        model_.CostOf(spec_.state_bits);
    compute_j_ = cost.compute_j;
    movement_j_ = cost.movement_j;
    AcquireMeters();
  }

  bool ShouldDropOnEnqueue(const aqm::AqmContext& ctx) override {
    if (spec_.charge_enqueue) Charge();
    return inner_->ShouldDropOnEnqueue(ctx);
  }

  aqm::AqmVerdict DecideOnEnqueue(const aqm::AqmContext& ctx) override {
    if (spec_.charge_enqueue) Charge();
    aqm::AqmVerdict verdict = inner_->DecideOnEnqueue(ctx);
    if (verdict == aqm::AqmVerdict::kDrop && ctx.packet.ecn_capable &&
        spec_.mark_threshold >= 0.0) {
      const double p = inner_->LastDropProbability();
      // Strict comparison: a saturated controller (p == 1, e.g. gentle
      // RED past 2*max_th) keeps dropping even ECN traffic, per the
      // RFC 3168 guidance that severe congestion must shed load.
      if (std::isfinite(p) && p < spec_.mark_threshold) {
        verdict = aqm::AqmVerdict::kMark;
      }
    }
    return verdict;
  }

  bool ShouldDropOnDequeue(const aqm::AqmContext& ctx) override {
    if (spec_.charge_dequeue) Charge();
    return inner_->ShouldDropOnDequeue(ctx);
  }

  std::string name() const override { return inner_->name(); }
  void Reset() override {
    inner_->Reset();
    ledger_.Reset();
    AcquireMeters();
    decisions_ = 0;
  }
  double LastDropProbability() const override {
    return inner_->LastDropProbability();
  }

  const energy::EnergyLedger& ledger() const { return ledger_; }
  std::uint64_t decisions() const { return decisions_; }
  double EnergyPerDecisionJ() const {
    return decisions_ == 0 ? 0.0
                           : ledger_.TotalJ() /
                                 static_cast<double>(decisions_);
  }

 private:
  void AcquireMeters() {
    compute_meter_ = ledger_.Meter(energy::category::kDigitalCompute);
    movement_meter_ = ledger_.Meter(energy::category::kDataMovement);
  }

  void Charge() {
    compute_meter_->energy_j += compute_j_;
    ++compute_meter_->operations;
    movement_meter_->energy_j += movement_j_;
    ++movement_meter_->operations;
    ++decisions_;
  }

  std::unique_ptr<aqm::AqmPolicy> inner_;
  HarnessSpec spec_;
  energy::DataMovementModel model_;
  energy::EnergyLedger ledger_;
  energy::CategoryTotal* compute_meter_ = nullptr;
  energy::CategoryTotal* movement_meter_ = nullptr;
  double compute_j_ = 0.0;
  double movement_j_ = 0.0;
  std::uint64_t decisions_ = 0;
};

// A cell's policy instance plus the views needed to read its energy.
struct CellPolicy {
  std::unique_ptr<aqm::AqmPolicy> policy;
  aqm::AnalogAqm* analog = nullptr;       // set iff kind == kAnalog
  DigitalHarness* harness = nullptr;      // set for digital kinds
};

}  // namespace

const char* ToString(AqmPolicyKind kind) {
  switch (kind) {
    case AqmPolicyKind::kAnalog: return "analog";
    case AqmPolicyKind::kPie: return "pie";
    case AqmPolicyKind::kPi2: return "pi2";
    case AqmPolicyKind::kCodel: return "codel";
    case AqmPolicyKind::kRed: return "red";
    case AqmPolicyKind::kWred: return "wred";
    case AqmPolicyKind::kTailDrop: return "taildrop";
  }
  return "?";
}

bool IsDigital(AqmPolicyKind kind) {
  return kind != AqmPolicyKind::kAnalog &&
         kind != AqmPolicyKind::kTailDrop;
}

const char* ToString(GridSimulator simulator) {
  return simulator == GridSimulator::kOpenLoop ? "open_loop"
                                               : "closed_loop";
}

void GridSpec::Validate() const {
  if (policies.empty() || base_rtts_s.empty() || loads.empty() ||
      ecn_fractions.empty()) {
    throw std::invalid_argument("GridSpec: every axis needs >= 1 value");
  }
  for (double rtt : base_rtts_s) {
    if (!(rtt > 0.0)) {
      throw std::invalid_argument("GridSpec: base RTT <= 0");
    }
  }
  for (const GridLoad& load : loads) {
    if (!(load.offered_fraction > 0.0) || load.sources == 0) {
      throw std::invalid_argument("GridSpec: bad load level");
    }
    if (load.label.empty()) {
      throw std::invalid_argument("GridSpec: load level needs a label");
    }
  }
  for (double ecn : ecn_fractions) {
    if (ecn < 0.0 || ecn > 1.0) {
      throw std::invalid_argument("GridSpec: ECN fraction outside [0,1]");
    }
  }
  if (!(link_rate_bps > 0.0) || segment_bytes == 0 ||
      open_loop_flows == 0) {
    throw std::invalid_argument("GridSpec: bad link/segment/flows");
  }
  if (!(open_duration_s > open_warmup_s) || open_warmup_s < 0.0 ||
      !(closed_duration_s > closed_warmup_s) || closed_warmup_s < 0.0) {
    throw std::invalid_argument("GridSpec: bad duration/warmup");
  }
  if (!(target_delay_s > 0.0) || !(max_deviation_s > 0.0)) {
    throw std::invalid_argument("GridSpec: bad target band");
  }
  if (!(buffer_bdp_multiple > 0.0)) {
    throw std::invalid_argument("GridSpec: buffer multiple <= 0");
  }
}

std::size_t GridSpec::CellCount() const {
  return policies.size() * base_rtts_s.size() * loads.size() *
         ecn_fractions.size() * 2;
}

GridSpec GridSpec::Default() {
  GridSpec spec;
  spec.policies = {AqmPolicyKind::kAnalog, AqmPolicyKind::kPie,
                   AqmPolicyKind::kPi2, AqmPolicyKind::kCodel,
                   AqmPolicyKind::kRed};
  spec.base_rtts_s = {0.010, 0.040, 0.100};
  spec.loads = {{"0.9x", 0.9, 4}, {"1.4x", 1.4, 16}};
  spec.ecn_fractions = {0.0, 0.5, 1.0};
  return spec;
}

double GridReport::MeanAdherence(AqmPolicyKind policy,
                                 GridSimulator simulator,
                                 const std::string& load_label) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const GridCellResult& cell : cells) {
    if (cell.policy == policy && cell.simulator == simulator &&
        cell.load.label == load_label) {
      sum += cell.adherence;
      ++n;
    }
  }
  return n == 0 ? -1.0 : sum / static_cast<double>(n);
}

double GridReport::AdherenceMargin(GridSimulator simulator,
                                   const std::string& load_label) const {
  const double analog =
      MeanAdherence(AqmPolicyKind::kAnalog, simulator, load_label);
  if (analog < 0.0) return -1.0;
  double best_digital = -1.0;
  for (AqmPolicyKind kind : spec.policies) {
    if (!IsDigital(kind)) continue;
    best_digital = std::max(
        best_digital, MeanAdherence(kind, simulator, load_label));
  }
  if (best_digital < 0.0) return -1.0;
  return analog - best_digital;
}

double GridReport::MinAdherenceMargin(GridSimulator simulator) const {
  double worst = 1.0;
  bool any = false;
  for (const GridLoad& load : spec.loads) {
    const double margin = AdherenceMargin(simulator, load.label);
    if (margin <= -1.0) continue;
    worst = std::min(worst, margin);
    any = true;
  }
  return any ? worst : -1.0;
}

ExperimentGrid::ExperimentGrid(GridSpec spec) : spec_(std::move(spec)) {
  spec_.Validate();
}

std::uint64_t ExperimentGrid::BufferBytes(double rtt_s) const {
  const double bdp_bytes = spec_.link_rate_bps * rtt_s / 8.0;
  const double bytes = spec_.buffer_bdp_multiple * bdp_bytes;
  // Never provision below a handful of segments or the short-RTT cells
  // can't hold even one in-flight burst.
  const double floor_bytes = 8.0 * static_cast<double>(spec_.segment_bytes);
  return static_cast<std::uint64_t>(std::max(bytes, floor_bytes));
}

namespace {

CellPolicy MakePolicy(const GridSpec& spec, AqmPolicyKind kind,
                      double rtt_s, std::uint64_t seed) {
  CellPolicy out;
  switch (kind) {
    case AqmPolicyKind::kAnalog: {
      aqm::AnalogAqmConfig cfg;
      cfg.target_delay_s = spec.target_delay_s;
      cfg.max_deviation_s = spec.max_deviation_s;
      cfg.ecn_enabled = true;
      // Coarser conductance quantisation keeps per-cell construction
      // cheap across a 100+ cell grid; the AQM transfer function is
      // unchanged at this resolution (see the ablation benches).
      cfg.hardware.state_levels = 256;
      cfg.seed = seed;
      auto analog = std::make_unique<aqm::AnalogAqm>(cfg);
      out.analog = analog.get();
      out.policy = std::move(analog);
      return out;
    }
    case AqmPolicyKind::kPie: {
      aqm::PieConfig cfg;
      cfg.target_delay_s = spec.target_delay_s;
      cfg.drain_rate_bps = spec.link_rate_bps;
      HarnessSpec hs;
      // drop_prob, qdelay, qdelay_old, last_update, burst_allowance +
      // the queue-bytes read and the scale-table lookup operand.
      hs.state_bits = 512;
      hs.mark_threshold = 0.1;  // RFC 8033 Sec. 5.1 mark_ecnth
      auto harness = std::make_unique<DigitalHarness>(
          std::make_unique<aqm::Pie>(cfg, seed), hs);
      out.harness = harness.get();
      out.policy = std::move(harness);
      return out;
    }
    case AqmPolicyKind::kPi2: {
      aqm::Pi2Config cfg;
      cfg.target_delay_s = spec.target_delay_s;
      cfg.drain_rate_bps = spec.link_rate_bps;
      HarnessSpec hs;
      hs.state_bits = 384;  // p', qdelay pair, last_update + queue read
      hs.mark_threshold = -1.0;  // native L4S mark path
      auto harness = std::make_unique<DigitalHarness>(
          std::make_unique<aqm::Pi2>(cfg, seed), hs);
      out.harness = harness.get();
      out.policy = std::move(harness);
      return out;
    }
    case AqmPolicyKind::kCodel: {
      aqm::CodelConfig cfg;
      cfg.target_s = spec.target_delay_s;
      // RFC 8289: interval should cover the worst-case expected RTT.
      cfg.interval_s = std::max(0.100, rtt_s);
      HarnessSpec hs;
      hs.state_bits = 320;  // first_above, drop_next, counts, state
      hs.charge_enqueue = false;
      hs.charge_dequeue = true;  // CoDel's only decision point
      auto harness = std::make_unique<DigitalHarness>(
          std::make_unique<aqm::Codel>(cfg), hs);
      out.harness = harness.get();
      out.policy = std::move(harness);
      return out;
    }
    case AqmPolicyKind::kRed:
    case AqmPolicyKind::kWred: {
      // Place the thresholds around the queue length that corresponds to
      // the grid's delay target at line rate (Little's law), so RED aims
      // at the same operating point as everyone else.
      const double target_pkts =
          spec.target_delay_s * spec.link_rate_bps /
          (8.0 * static_cast<double>(spec.segment_bytes));
      aqm::RedConfig low;
      low.min_threshold_pkts = std::max(1.0, 0.5 * target_pkts);
      low.max_threshold_pkts = std::max(2.0, 1.5 * target_pkts);
      low.max_p = 0.1;
      HarnessSpec hs;
      hs.state_bits = kind == AqmPolicyKind::kRed ? 256 : 384;
      hs.mark_threshold = 1.0;  // RFC 3168: mark every early drop
      std::unique_ptr<aqm::AqmPolicy> inner;
      if (kind == AqmPolicyKind::kRed) {
        inner = std::make_unique<aqm::Red>(low, seed);
      } else {
        aqm::RedConfig high = low;  // relieved profile for priority >= 4
        high.min_threshold_pkts = low.max_threshold_pkts;
        high.max_threshold_pkts = 2.0 * low.max_threshold_pkts;
        high.max_p = 0.5 * low.max_p;
        inner = std::make_unique<aqm::Wred>(high, low, seed);
      }
      auto harness =
          std::make_unique<DigitalHarness>(std::move(inner), hs);
      out.harness = harness.get();
      out.policy = std::move(harness);
      return out;
    }
    case AqmPolicyKind::kTailDrop: {
      HarnessSpec hs;
      hs.state_bits = 64;  // the occupancy compare
      auto harness = std::make_unique<DigitalHarness>(
          std::make_unique<aqm::TailDropOnly>(), hs);
      out.harness = harness.get();
      out.policy = std::move(harness);
      return out;
    }
  }
  throw std::invalid_argument("MakePolicy: unknown policy kind");
}

void FillEnergy(const CellPolicy& cell_policy, GridCellResult& cell) {
  if (cell_policy.analog != nullptr) {
    const aqm::AnalogAqm& analog = *cell_policy.analog;
    cell.decisions =
        analog.ledger().Of(energy::category::kPcamSearch).operations;
    if (cell.decisions > 0) {
      cell.energy_nj_per_decision =
          analog.ConsumedEnergyJ() /
          static_cast<double>(cell.decisions) * 1e9;
    }
  } else if (cell_policy.harness != nullptr) {
    cell.decisions = cell_policy.harness->decisions();
    cell.energy_nj_per_decision =
        cell_policy.harness->EnergyPerDecisionJ() * 1e9;
  }
}

void FillSojourns(std::vector<double> post_warmup, GridCellResult& cell) {
  if (post_warmup.empty()) return;
  cell.mean_sojourn_s = Mean(post_warmup);  // before the selections reorder
  cell.p50_sojourn_s = PercentileInPlace(post_warmup, 0.50);
  cell.p99_sojourn_s = PercentileInPlace(post_warmup, 0.99);
}

}  // namespace

GridCellResult ExperimentGrid::RunOpenLoop(AqmPolicyKind policy_kind,
                                           double rtt_s,
                                           const GridLoad& load,
                                           double ecn_fraction,
                                           std::uint64_t cell_seed) const {
  CellPolicy cell_policy =
      MakePolicy(spec_, policy_kind, rtt_s, Mix(cell_seed));

  net::MetaSourceConfig mc;
  mc.arrivals.rate_pps = load.offered_fraction * spec_.link_rate_bps /
                         (8.0 * static_cast<double>(spec_.segment_bytes));
  mc.flows = spec_.open_loop_flows;
  mc.ecn_capable_fraction = ecn_fraction;
  mc.size_bytes = spec_.segment_bytes;
  net::MetaSource source(mc, cell_seed);

  QueueSimConfig qc;
  qc.duration_s = spec_.open_duration_s;
  qc.warmup_s = spec_.open_warmup_s;
  qc.link_rate_bps = spec_.link_rate_bps;
  qc.queue.max_bytes = BufferBytes(rtt_s);

  QueueSimulator simulator(qc, source, *cell_policy.policy);
  const SimReport report = simulator.Run();

  GridCellResult cell;
  cell.policy = policy_kind;
  cell.simulator = GridSimulator::kOpenLoop;
  cell.base_rtt_s = rtt_s;
  cell.load = load;
  cell.ecn_fraction = ecn_fraction;

  cell.adherence = report.DelayFractionWithin(
      spec_.target_delay_s - spec_.max_deviation_s,
      spec_.target_delay_s + spec_.max_deviation_s);
  FillSojourns(report.delay.ValuesFrom(spec_.open_warmup_s), cell);
  cell.drop_rate = report.DropRate();
  cell.offered_packets = report.offered_packets;
  cell.delivered_packets = report.delivered_packets;
  cell.dropped_packets =
      report.queue_stats.dropped_full + report.queue_stats.dropped_aqm;
  cell.marked_packets = report.ecn_marked_packets;
  if (report.offered_packets > 0) {
    cell.mark_rate = static_cast<double>(report.ecn_marked_packets) /
                     static_cast<double>(report.offered_packets);
  }
  cell.fairness = report.FlowFairnessIndex();
  cell.utilization =
      std::min(1.0, report.ThroughputBps() / spec_.link_rate_bps);
  FillEnergy(cell_policy, cell);
  return cell;
}

GridCellResult ExperimentGrid::RunClosedLoop(
    AqmPolicyKind policy_kind, double rtt_s, const GridLoad& load,
    double ecn_fraction, std::uint64_t cell_seed) const {
  CellPolicy cell_policy =
      MakePolicy(spec_, policy_kind, rtt_s, Mix(cell_seed));

  ClosedLoopConfig cc;
  cc.sources = load.sources;
  cc.base_rtt_s = rtt_s;
  cc.segment_bytes = spec_.segment_bytes;
  cc.ecn_fraction = ecn_fraction;
  cc.duration_s = spec_.closed_duration_s;
  cc.warmup_s = spec_.closed_warmup_s;
  cc.link_rate_bps = spec_.link_rate_bps;
  cc.queue.max_bytes = BufferBytes(rtt_s);
  cc.seed = cell_seed;

  ClosedLoopSimulator simulator(cc, *cell_policy.policy);
  const ClosedLoopReport report = simulator.Run();

  GridCellResult cell;
  cell.policy = policy_kind;
  cell.simulator = GridSimulator::kClosedLoop;
  cell.base_rtt_s = rtt_s;
  cell.load = load;
  cell.ecn_fraction = ecn_fraction;

  std::vector<double> post_warmup =
      report.delay.ValuesFrom(spec_.closed_warmup_s);
  if (!post_warmup.empty()) {
    cell.adherence = FractionWithin(
        post_warmup, spec_.target_delay_s - spec_.max_deviation_s,
        spec_.target_delay_s + spec_.max_deviation_s);
  }
  FillSojourns(std::move(post_warmup), cell);
  cell.offered_packets = report.offered_packets;
  cell.delivered_packets = report.delivered_packets;
  cell.dropped_packets = report.dropped_packets;
  cell.marked_packets = report.marked_packets;
  if (report.offered_packets > 0) {
    const auto offered = static_cast<double>(report.offered_packets);
    cell.drop_rate =
        static_cast<double>(report.dropped_packets) / offered;
    cell.mark_rate =
        static_cast<double>(report.marked_packets) / offered;
  }
  cell.fairness = report.FairnessIndex();
  cell.utilization =
      report.LinkUtilization(spec_.link_rate_bps, spec_.segment_bytes);
  FillEnergy(cell_policy, cell);
  return cell;
}

GridReport ExperimentGrid::Run() {
  GridReport report;
  report.spec = spec_;
  report.cells.reserve(spec_.CellCount());
  for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
    for (std::size_t r = 0; r < spec_.base_rtts_s.size(); ++r) {
      for (std::size_t l = 0; l < spec_.loads.size(); ++l) {
        for (std::size_t e = 0; e < spec_.ecn_fractions.size(); ++e) {
          const AqmPolicyKind kind = spec_.policies[p];
          const double rtt = spec_.base_rtts_s[r];
          const GridLoad& load = spec_.loads[l];
          const double ecn = spec_.ecn_fractions[e];
          // The policy-kind index would reshuffle seeds if the policy
          // list were reordered; hash the stable enum value instead.
          const auto kind_id = static_cast<std::uint64_t>(kind);
          report.cells.push_back(RunOpenLoop(
              kind, rtt, load, ecn,
              CellSeed(spec_.seed, kind_id, r, l, e, 0)));
          if (callback_) callback_(report.cells.back());
          report.cells.push_back(RunClosedLoop(
              kind, rtt, load, ecn,
              CellSeed(spec_.seed, kind_id, r, l, e, 1)));
          if (callback_) callback_(report.cells.back());
        }
      }
    }
  }
  return report;
}

}  // namespace analognf::sim
