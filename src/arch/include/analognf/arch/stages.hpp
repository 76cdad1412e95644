// The concrete stages of the cognitive switch's pipeline (Fig. 5, left
// to right). Each implements MatchActionStage over the batch lanes:
//
//   ParseStage          packets -> parsed/flow_hash/priority lanes
//   FirewallStage       digital MAT: ternary 5-tuple match (deny verdicts)
//   RouteStage          digital MAT: LPM next hop (route_port lane)
//   LoadBalancerStage   analog MAT: pCAM ECMP re-balance of route_port
//   TrafficClassStage   analog MAT: pCAM flow classification lane
//   TrafficManagerStage ordered commit: stats, canonical ledger, packet
//                       ids, AQM admission, egress enqueue + drain
//
// The two digital MATs only read a SharedTables (switch.hpp) through its
// published snapshots; whoever owns the tables programs and commits
// them. Only the traffic manager touches the canonical energy ledger and
// the switch stats, and it does so in strict packet order — that is what
// keeps batch results bit-identical to a sequential per-packet pipeline
// (see stage.hpp's attribution contract).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "analognf/aqm/aqm_queue.hpp"
#include "analognf/arch/stage.hpp"
#include "analognf/arch/switch.hpp"

namespace analognf::arch {

// One-entry memo over DataMovementModel::CostOf. Header widths are
// effectively constant (8 * min(size, 42) bits is 336 for any packet
// with a full 42-byte header), so the breakdown's divide runs once per
// distinct width instead of once per packet. CostOf is pure, so the
// memo is exact.
struct CachedMovementCost {
  const energy::MovementBreakdown& Of(const energy::DataMovementModel& model,
                                      std::uint64_t bits) {
    if (bits != last_bits) {
      last_bits = bits;
      last_cost = model.CostOf(bits);
    }
    return last_cost;
  }
  std::uint64_t last_bits = ~std::uint64_t{0};
  energy::MovementBreakdown last_cost;
};

// ----------------------------------------------------------- ParseStage
// Digital front-end: header extraction over the whole batch. Settles
// kParseError / non-IPv4 kNoRoute verdicts and fills the flow_hash and
// priority lanes for routable packets.
class ParseStage final : public MatchActionStage {
 public:
  explicit ParseStage(const energy::DataMovementModel* movement);
  void Process(net::PacketBatch& batch) override;

 private:
  net::Parser parser_;
  const energy::DataMovementModel* movement_;
  CachedMovementCost header_cost_;
};

// -------------------------------------------------------- FirewallStage
// Digital MAT 1: ternary 5-tuple match (the high-precision function the
// paper keeps digital). Marks searched packets and settles deny verdicts.
//
// The stage only reads its table; the table's owner (a SharedTables, see
// switch.hpp) stages and commits the rules. Each batch acquires the
// published snapshot and searches its const engine into the stage's own
// buffers, so N port threads can run against one table while the
// controller commits. The stage never touches the table's accounting
// state.
class FirewallStage final : public MatchActionStage {
 public:
  // `table` must outlive the stage.
  explicit FirewallStage(const tcam::TcamTable* table);
  void Process(net::PacketBatch& batch) override;
  const tcam::TcamTable& table() const { return *table_; }

 private:
  const tcam::TcamTable* table_;
  // Batch scratch (reused, never shrinks; per-stage, so per-port: never
  // contended): eligible packet indices, their compacted keys and the
  // engine's hits.
  std::vector<std::size_t> eligible_;
  std::vector<tcam::BitKey> keys_;
  std::vector<std::optional<tcam::TcamEngineHit>> hits_;
};

// ----------------------------------------------------------- RouteStage
// Digital MAT 2: longest-prefix IPv4 lookup for packets the firewall
// permitted. Fills the route_port lane; misses settle kNoRoute. Reads
// the published route snapshot like FirewallStage reads its table.
class RouteStage final : public MatchActionStage {
 public:
  // `routes` must outlive the stage.
  explicit RouteStage(const tcam::LpmTable* routes);
  void Process(net::PacketBatch& batch) override;

 private:
  const tcam::LpmTable* routes_;
  std::vector<std::size_t> eligible_;
  std::vector<std::uint32_t> addrs_;
  std::vector<std::optional<tcam::TcamEngineHit>> hits_;
};

// ---------------------------------------------------- LoadBalancerStage
// Analog MAT: ECMP-by-pCAM port selection. Routed packets whose egress
// port belongs to the balanced group are re-assigned across the group by
// analog match degree against per-port load policies, flow-sticky via
// the flow hash. Canonical pCAM energy is deferred through the batch's
// analog_commits lane and committed by the traffic manager in packet
// order (the bit-identity contract of stage.hpp).
class LoadBalancerStage final : public MatchActionStage {
 public:
  // `ports` is the balanced group (backend b of the balancer maps to
  // ports[b]); empty = all ports. `port_count` bounds the membership
  // lookup table.
  LoadBalancerStage(std::vector<std::uint32_t> ports, std::size_t port_count);
  void Process(net::PacketBatch& batch) override;
  // Binds the balancer's pCAM engine to `pcam.lb.*` counters.
  void BindTelemetry(telemetry::MetricsRegistry& registry) {
    balancer_.BindTelemetry(registry, "pcam.lb");
  }

 private:
  std::vector<std::uint32_t> ports_;
  std::vector<std::uint8_t> member_;  // port -> in balanced group
  cognitive::AnalogLoadBalancer balancer_;
};

// ---------------------------------------------------- TrafficClassStage
// Analog MAT: traffic analysis. Gathers the batch's routed packets,
// updates their flows in packet order through FlowTracker::ObserveBatch
// (flow keys hashed up front on the SIMD dispatch layer), then runs one
// batched pCAM search over a flat query block; results land in the
// traffic_class lane and per-class counters. Flow updates stay in packet
// order and the default channel is stateless, so classifications are
// independent of how the caller batches arrivals; pCAM energy defers
// through analog_commits like the load balancer's. All scratch is
// per-stage and never shrinks: steady-state Process() does not allocate.
class TrafficClassStage final : public MatchActionStage {
 public:
  TrafficClassStage(
      const std::vector<cognitive::AnalogTrafficClassifier::ClassSpec>&
          classes,
      double min_confidence);
  void Process(net::PacketBatch& batch) override;
  // Packets tagged per class index, and packets no class matched.
  const std::vector<std::uint64_t>& class_counts() const {
    return class_counts_;
  }
  std::uint64_t unclassified() const { return unclassified_; }
  // Binds the classifier's pCAM engine to `pcam.classifier.*` counters.
  void BindTelemetry(telemetry::MetricsRegistry& registry) {
    classifier_.BindTelemetry(registry, "pcam.classifier");
  }

 private:
  double min_confidence_;
  cognitive::FlowTracker tracker_;
  cognitive::AnalogTrafficClassifier classifier_;
  std::vector<std::uint64_t> class_counts_;
  std::uint64_t unclassified_ = 0;
  // Batch scratch (reused, never shrinks): eligible packet indices,
  // their gathered metadata, per-flow features and classify outcomes.
  std::vector<std::size_t> eligible_;
  std::vector<net::PacketMeta> metas_;
  std::vector<cognitive::FlowFeatures> features_;
  std::vector<cognitive::ClassifyOutcome> outcomes_;
};

// -------------------------------------------------- TrafficManagerStage
// The cognitive traffic manager plus the switch's bookkeeping: replays
// the batch in strict packet order, committing stats, canonical ledger
// energy (digital compute/movement, TCAM searches of the upstream
// stages, pCAM AQM admission), packet ids, service-class mapping and
// the offer to the egress queue. Also owns the egress side: one
// aqm::AqmQueue per (port, class) — the same AQM-guarded queue the
// simulators' bottleneck uses — guarded by its own AnalogAqm, or by one
// shared TailDropOnly when AQM is disabled, and the drain scheduler.
class TrafficManagerStage final : public MatchActionStage {
 public:
  TrafficManagerStage(const SwitchConfig* config,
                      const energy::DataMovementModel* movement,
                      SwitchStats* stats, energy::EnergyLedger* ledger);
  void Process(net::PacketBatch& batch) override;

  // Replaces the WRR weights at a scheduling boundary: the compiled
  // schedule is rebuilt and every port's rotation restarts from the
  // initial position (the same place a freshly constructed manager
  // starts). Size must equal service_classes; weights must be nonzero.
  void SetWrrWeights(const std::vector<std::uint32_t>& weights);

  std::size_t DrainInto(double until_s, std::vector<Delivery>& out);
  const net::PacketQueue& egress_queue(std::size_t port,
                                       std::size_t service_class) const;
  aqm::AnalogAqm* port_aqm(std::size_t port, std::size_t service_class);
  // Packets currently queued across every egress port and class.
  std::uint64_t QueuedPackets() const;

 private:
  struct EgressPort {
    // One AQM-guarded FIFO per service class, index 0 = highest
    // priority, each guarded by its own AQM instance (aqms; empty when
    // AQM is disabled, and then every queue is guarded by tail_drop_).
    std::vector<std::unique_ptr<aqm::AnalogAqm>> aqms;
    std::vector<aqm::AqmQueue> queues;
    double next_free_s = 0.0;
    // Weighted-round-robin rotation state: a cursor into the compiled
    // schedule (wrr_schedule_). One slot is one service-slot's worth of
    // credit, so a dequeue is O(1): read the slot, advance the cursor.
    std::size_t wrr_pos = 0;
  };

  // Scheduler decision: which class the next service slot goes to,
  // among classes whose head arrived by start_s. Asserts one exists.
  // WRR walks the compiled schedule: an eligible slot is consumed in
  // O(1); an ineligible class forfeits the rest of its block and the
  // cursor jumps to the next block start (at most classes+1 hops).
  std::size_t PickClass(EgressPort& port, double start_s);
  // Flattens `weights` into wrr_schedule_ / wrr_block_start_ and returns
  // the initial cursor position (the first class the legacy credit
  // rotation would have served).
  void CompileWrrSchedule(const std::vector<std::uint32_t>& weights);
  // Service class a 3-bit priority maps to under the configuration.
  std::size_t ClassOf(std::uint8_t priority) const;
  // Offers one routed packet to its egress queue; pcam accumulates the
  // analog AQM's search energy (canonical ledger) and its drop
  // probability folds into `degrees` (telemetry only).
  Verdict AdmitAndEnqueue(std::size_t port_index, std::size_t service_class,
                          const net::PacketMeta& meta, double now_s,
                          energy::CategoryTotal& pcam,
                          net::PacketBatch::DegreeSummary& degrees);

  const SwitchConfig* config_;
  const energy::DataMovementModel* movement_;
  SwitchStats* stats_;
  energy::EnergyLedger* ledger_;
  // Canonical-ledger category meters, resolved once at construction: the
  // string-keyed map lookup (and, for category names past the SSO limit,
  // a heap-allocated temporary key) must stay off the per-batch path.
  energy::CategoryTotal* compute_meter_;
  energy::CategoryTotal* movement_meter_;
  energy::CategoryTotal* tcam_meter_;
  energy::CategoryTotal* pcam_meter_;
  // Guards every egress queue when AQM is disabled: pure tail drop.
  aqm::TailDropOnly tail_drop_;
  std::vector<EgressPort> ports_;
  std::uint64_t next_packet_id_ = 0;
  // Compiled WRR schedule: class c occupies wrr_block_start_[c] ..
  // wrr_block_start_[c] + weight[c] - 1; the vector's length is the sum
  // of weights. Rebuilt only by the constructor and SetWrrWeights —
  // never on the dequeue path. Empty under strict priority with no
  // weights configured.
  std::vector<std::uint32_t> wrr_schedule_;
  std::vector<std::size_t> wrr_block_start_;
  std::size_t wrr_initial_pos_ = 0;
  // Scratch for replaying deferred analog commits in packet order
  // (counting-sort cursors + the sorted buffer; reused, never shrinks).
  std::vector<net::PacketBatch::AnalogCommit> commits_;
  std::vector<std::size_t> commit_starts_;
  CachedMovementCost header_cost_;
};

}  // namespace analognf::arch
