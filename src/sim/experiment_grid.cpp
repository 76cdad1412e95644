#include "analognf/sim/experiment_grid.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <utility>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/aqm/codel.hpp"
#include "analognf/aqm/pi2.hpp"
#include "analognf/aqm/pie.hpp"
#include "analognf/aqm/red.hpp"
#include "analognf/aqm/wred.hpp"
#include "analognf/cognitive/learned_aqm.hpp"
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
      : inner_(std::move(inner)),
        spec_(spec),
        compute_meter_(ledger_.Meter(energy::category::kDigitalCompute)),
        movement_meter_(ledger_.Meter(energy::category::kDataMovement)) {
    const energy::MovementBreakdown cost =
        model_.CostOf(spec_.state_bits);
    compute_j_ = cost.compute_j;
    movement_j_ = cost.movement_j;
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

  double LastDropProbability() const override {
    return inner_->LastDropProbability();
  }

  const energy::EnergyLedger& ledger() const { return ledger_; }
  std::uint64_t decisions() const { return decisions_; }

 private:
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
  energy::CategoryTotal* compute_meter_;
  energy::CategoryTotal* movement_meter_;
  double compute_j_ = 0.0;
  double movement_j_ = 0.0;
  std::uint64_t decisions_ = 0;
};

// A cell's policy instance plus the views needed to read its energy.
struct CellPolicy {
  std::unique_ptr<aqm::AqmPolicy> policy;
  aqm::AnalogAqm* analog = nullptr;       // set iff kind == kAnalog
  cognitive::LearnedAqm* learned = nullptr;  // set iff kind == kLearned
  DigitalHarness* harness = nullptr;      // set for the other kinds
};

// Open-loop arrival config of a load: its template at the load's rate.
net::ArrivalConfig OpenLoopArrivals(const GridLoad& load) {
  net::ArrivalConfig arrivals = load.arrivals;
  arrivals.rate_pps = load.offered_fraction * GridSpec::kLinkRateBps /
                      (8.0 * static_cast<double>(GridSpec::kSegmentBytes));
  return arrivals;
}

double BufferBytesExact(double rtt_s) {
  return GridSpec::kBufferBdpMultiple * GridSpec::kLinkRateBps * rtt_s /
         8.0;
}

std::uint64_t BufferBytes(double rtt_s) {
  // Never provision below a handful of segments or the short-RTT cells
  // can't hold even one in-flight burst.
  const double floor_bytes =
      8.0 * static_cast<double>(GridSpec::kSegmentBytes);
  return static_cast<std::uint64_t>(
      std::max(BufferBytesExact(rtt_s), floor_bytes));
}

void Require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("GridSpec: ") + what);
}

bool Positive(double x) { return std::isfinite(x) && x > 0.0; }

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
    case AqmPolicyKind::kLearned: return "learned";
  }
  return "?";
}

bool IsDigital(AqmPolicyKind kind) {
  return kind != AqmPolicyKind::kAnalog &&
         kind != AqmPolicyKind::kTailDrop &&
         kind != AqmPolicyKind::kLearned;
}

const char* ToString(GridSimulator simulator) {
  return simulator == GridSimulator::kOpenLoop ? "open_loop"
                                               : "closed_loop";
}

void GridSpec::Validate() const {
  Require(!policies.empty() && !base_rtts_s.empty() && !loads.empty() &&
              !ecn_fractions.empty(),
          "every axis needs >= 1 value");
  Require(Positive(open_duration_s) && open_warmup_s >= 0.0 &&
              open_duration_s > open_warmup_s &&
              Positive(closed_duration_s) && closed_warmup_s >= 0.0 &&
              closed_duration_s > closed_warmup_s,
          "bad duration/warmup");
  for (double rtt : base_rtts_s) {
    // The buffer must fit the uint64 byte count it is converted to.
    Require(Positive(rtt) && BufferBytesExact(rtt) < 0x1p63,
            "base RTT not > 0 or buffer too large");
  }
  for (const GridLoad& load : loads) {
    Require(!load.label.empty(), "load level needs a label");
    Require(Positive(load.offered_fraction) && load.sources > 0,
            "bad load level");
    OpenLoopArrivals(load).Validate();
  }
  for (double ecn : ecn_fractions) {
    Require(ecn >= 0.0 && ecn <= 1.0, "ECN fraction outside [0,1]");
  }
  std::set<std::string> labels;
  for (const GridVariant& variant : variants) {
    Require(!variant.label.empty() && labels.insert(variant.label).second,
            "variant labels must be non-empty and unique");
    Require(std::isfinite(variant.age_s) && variant.age_s >= 0.0,
            "variant age not finite and >= 0");
  }
}

std::size_t GridSpec::CellCount() const {
  const auto analog = static_cast<std::size_t>(
      std::count(policies.begin(), policies.end(), AqmPolicyKind::kAnalog));
  const std::size_t per_policy =
      base_rtts_s.size() * loads.size() * ecn_fractions.size() * 2;
  return (policies.size() - analog +
          analog * std::max<std::size_t>(1, variants.size())) *
         per_policy;
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

namespace {

CellPolicy MakePolicy(AqmPolicyKind kind, const GridVariant* variant,
                      double rtt_s, std::uint64_t seed) {
  CellPolicy out;
  switch (kind) {
    case AqmPolicyKind::kAnalog: {
      aqm::AnalogAqmConfig cfg;
      cfg.target_delay_s = GridSpec::kTargetDelayS;
      cfg.max_deviation_s = GridSpec::kMaxDeviationS;
      cfg.ecn_enabled = true;
      // 256 device levels: finer than HardwarePcamConfig's default 64.
      // No recorded reason picked this value; it stays because the
      // recorded grid outputs (BENCH_shootout.json, the golden grid
      // digests) depend on it. bench_fig7_aqm_output's precision table
      // gives the PDP ramp error at 64 and at 256 levels.
      cfg.hardware.state_levels = 256;
      cfg.hardware.seed = seed;
      if (variant != nullptr && variant->configure) variant->configure(cfg);
      auto analog = std::make_unique<aqm::AnalogAqm>(cfg);
      if (variant != nullptr && variant->age_s > 0.0) {
        core::PcamPipeline& pipeline = analog->table().pipeline();
        for (std::size_t i = 0; i < pipeline.stage_count(); ++i) {
          pipeline.cell(i).Age(variant->age_s);
        }
      }
      out.analog = analog.get();
      out.policy = std::move(analog);
      return out;
    }
    case AqmPolicyKind::kLearned: {
      cognitive::LearnedAqmConfig cfg;
      cfg.target_delay_s = GridSpec::kTargetDelayS;
      cfg.max_deviation_s = GridSpec::kMaxDeviationS;
      cfg.seed = seed;
      auto learned = std::make_unique<cognitive::LearnedAqm>(cfg);
      out.learned = learned.get();
      out.policy = std::move(learned);
      return out;
    }
    case AqmPolicyKind::kPie: {
      aqm::PieConfig cfg;
      cfg.target_delay_s = GridSpec::kTargetDelayS;
      cfg.drain_rate_bps = GridSpec::kLinkRateBps;
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
      cfg.target_delay_s = GridSpec::kTargetDelayS;
      cfg.drain_rate_bps = GridSpec::kLinkRateBps;
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
      cfg.target_s = GridSpec::kTargetDelayS;
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
          GridSpec::kTargetDelayS * GridSpec::kLinkRateBps /
          (8.0 * static_cast<double>(GridSpec::kSegmentBytes));
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
  double energy_j = 0.0;
  if (cell_policy.analog != nullptr) {
    cell.decisions = cell_policy.analog->ledger()
                         .Of(energy::category::kPcamSearch)
                         .operations;
    energy_j = cell_policy.analog->ConsumedEnergyJ();
  } else if (cell_policy.learned != nullptr) {
    cell.decisions = cell_policy.learned->decisions();
    energy_j = cell_policy.learned->ConsumedEnergyJ();
  } else {
    cell.decisions = cell_policy.harness->decisions();
    energy_j = cell_policy.harness->ledger().TotalJ();
  }
  if (cell.decisions > 0) {
    cell.energy_nj_per_decision =
        energy_j / static_cast<double>(cell.decisions) * 1e9;
  }
}

void FillSojourns(std::vector<double> post_warmup, GridCellResult& cell) {
  if (post_warmup.empty()) return;
  cell.mean_sojourn_s = Mean(post_warmup);  // before the selections reorder
  cell.p50_sojourn_s = PercentileInPlace(post_warmup, 0.50);
  cell.p99_sojourn_s = PercentileInPlace(post_warmup, 0.99);
}

}  // namespace

GridCellResult ExperimentGrid::RunCell(AqmPolicyKind policy_kind,
                                       const GridVariant* variant,
                                       GridSimulator simulator,
                                       double rtt_s, const GridLoad& load,
                                       double ecn_fraction,
                                       std::uint64_t cell_seed) const {
  CellPolicy cell_policy =
      MakePolicy(policy_kind, variant, rtt_s, Mix(cell_seed));

  GridCellResult cell;
  cell.policy = policy_kind;
  if (variant != nullptr) cell.variant = variant->label;
  cell.simulator = simulator;
  cell.base_rtt_s = rtt_s;
  cell.load = load;
  cell.ecn_fraction = ecn_fraction;

  // The two simulators differ in their traffic and in what utilization
  // and fairness mean; the bottleneck's report core is read once below.
  LinkReport link;
  if (simulator == GridSimulator::kOpenLoop) {
    net::MetaSourceConfig mc;
    mc.arrivals = OpenLoopArrivals(load);
    mc.flows = GridSpec::kOpenLoopFlows;
    mc.ecn_capable_fraction = ecn_fraction;
    mc.size_bytes = GridSpec::kSegmentBytes;
    net::MetaSource source(mc, cell_seed);

    QueueSimConfig qc;
    qc.duration_s = spec_.open_duration_s;
    qc.warmup_s = spec_.open_warmup_s;
    qc.link_rate_bps = GridSpec::kLinkRateBps;
    qc.queue.max_bytes = BufferBytes(rtt_s);

    QueueSimulator open_sim(qc, source, *cell_policy.policy);
    SimReport report = open_sim.Run();
    cell.fairness = report.link.FairnessIndex();
    cell.utilization =
        std::min(1.0, report.ThroughputBps() / GridSpec::kLinkRateBps);
    link = std::move(report.link);
  } else {
    ClosedLoopConfig cc;
    cc.sources = load.sources;
    cc.base_rtt_s = rtt_s;
    cc.segment_bytes = GridSpec::kSegmentBytes;
    cc.ecn_fraction = ecn_fraction;
    cc.duration_s = spec_.closed_duration_s;
    cc.warmup_s = spec_.closed_warmup_s;
    cc.link_rate_bps = GridSpec::kLinkRateBps;
    cc.queue.max_bytes = BufferBytes(rtt_s);

    ClosedLoopSimulator closed_sim(cc, *cell_policy.policy);
    ClosedLoopReport report = closed_sim.Run();
    cell.fairness = report.FairnessIndex();
    cell.utilization =
        report.LinkUtilization(GridSpec::kLinkRateBps, GridSpec::kSegmentBytes);
    link = std::move(report.link);
  }

  cell.offered_packets = link.offered_packets;
  cell.delivered_packets = link.delivered_packets;
  cell.dropped_packets = link.dropped_packets;
  cell.marked_packets = link.marked_packets;
  cell.adherence = link.DelayFractionWithin(
      GridSpec::kTargetDelayS - GridSpec::kMaxDeviationS,
      GridSpec::kTargetDelayS + GridSpec::kMaxDeviationS);
  FillSojourns(link.delay.ValuesFrom(link.warmup_s), cell);
  if (cell.offered_packets > 0) {
    const auto offered = static_cast<double>(cell.offered_packets);
    cell.drop_rate = static_cast<double>(cell.dropped_packets) / offered;
    cell.mark_rate = static_cast<double>(cell.marked_packets) / offered;
  }
  FillEnergy(cell_policy, cell);
  return cell;
}

GridReport ExperimentGrid::Run() {
  GridReport report;
  report.spec = spec_;
  report.cells.reserve(spec_.CellCount());
  for (std::size_t p = 0; p < spec_.policies.size(); ++p) {
    const AqmPolicyKind kind = spec_.policies[p];
    // Analog cells fan out over the variants; every other cell (and an
    // analog cell of a variant-free spec) runs once, with no variant.
    const bool fan_out =
        kind == AqmPolicyKind::kAnalog && !spec_.variants.empty();
    const std::size_t variant_count = fan_out ? spec_.variants.size() : 1;
    for (std::size_t r = 0; r < spec_.base_rtts_s.size(); ++r) {
      for (std::size_t l = 0; l < spec_.loads.size(); ++l) {
        for (std::size_t e = 0; e < spec_.ecn_fractions.size(); ++e) {
          const double rtt = spec_.base_rtts_s[r];
          const GridLoad& load = spec_.loads[l];
          const double ecn = spec_.ecn_fractions[e];
          // The policy-kind index would reshuffle seeds if the policy
          // list were reordered; hash the stable enum value instead.
          // Variants share the seed: each sees the same arrivals.
          const auto kind_id = static_cast<std::uint64_t>(kind);
          for (std::size_t v = 0; v < variant_count; ++v) {
            const GridVariant* variant =
                fan_out ? &spec_.variants[v] : nullptr;
            for (GridSimulator simulator :
                 {GridSimulator::kOpenLoop, GridSimulator::kClosedLoop}) {
              const auto sim_id = static_cast<std::uint64_t>(
                  simulator == GridSimulator::kClosedLoop);
              report.cells.push_back(
                  RunCell(kind, variant, simulator, rtt, load, ecn,
                          CellSeed(spec_.seed, kind_id, r, l, e, sim_id)));
              if (callback_) callback_(report.cells.back());
            }
          }
        }
      }
    }
  }
  return report;
}

}  // namespace analognf::sim
