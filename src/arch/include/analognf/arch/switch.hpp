// The memristor-based cognitive packet-processing architecture (Fig. 5),
// built as a stage graph.
//
// The data plane is an ordered chain of MatchActionStage slots over a
// net::PacketBatch (stage.hpp):
//
//   parse -> firewall TCAM -> LPM route -> [load balancer] ->
//   [traffic classifier] -> [custom stages] -> traffic manager
//
// Digital MATs (firewall, LPM — the high-precision functions the paper
// keeps digital) and analog MATs (pCAM AQM admission, load balancing,
// traffic analysis) implement the same batch-oriented contract, so the
// pipeline is composable the way Fig. 5 draws it. Every component
// accounts energy into a shared ledger so the Fig. 1-style digital/
// analog split can be reported per workload; a second, per-stage ledger
// attributes the same energy by pipeline position.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analognf/aqm/analog_aqm.hpp"
#include "analognf/arch/keys.hpp"
#include "analognf/arch/stage.hpp"
#include "analognf/cognitive/classifier.hpp"
#include "analognf/cognitive/load_balancer.hpp"
#include "analognf/energy/ledger.hpp"
#include "analognf/energy/movement.hpp"
#include "analognf/net/packet.hpp"
#include "analognf/net/packet_batch.hpp"
#include "analognf/net/queue.hpp"
#include "analognf/tcam/tcam.hpp"
#include "analognf/telemetry/telemetry.hpp"

namespace analognf::arch {

// The verdict type lives with the batch lanes in net; re-exported here
// so arch callers keep writing arch::Verdict.
using net::ToString;
using net::Verdict;

// Egress scheduling discipline across service classes.
enum class SchedulerPolicy {
  kStrictPriority,      // class 0 always first (can starve lower classes)
  kWeightedRoundRobin,  // classes served in proportion to wrr_weights
};

// A packet delivered out of an egress port.
struct Delivery {
  std::size_t port = 0;
  std::size_t service_class = 0;
  net::PacketMeta meta;
  double departure_s = 0.0;
  double sojourn_s = 0.0;
};

struct SwitchConfig {
  std::size_t port_count = 4;
  double port_rate_bps = 100.0e6;
  net::PacketQueue::Config egress_queue{};
  // Service classes per egress port. 1 = the plain FIFO traffic
  // manager. Otherwise the 3-bit packet priority (0..7, from the DSCP
  // class selector) maps proportionally onto classes, highest priority
  // to class 0: priority p lands in class (7-p)*service_classes/8
  // (clamped), so every class is reachable for any count <= 8. With 2
  // classes this is the classic split: priority >= 4 to class 0, the
  // rest to class 1.
  std::size_t service_classes = 1;
  SchedulerPolicy scheduler = SchedulerPolicy::kStrictPriority;
  // Per-class service quanta for kWeightedRoundRobin. When non-empty the
  // size must equal service_classes and every weight must be positive
  // (validated under both schedulers, so a strict-priority config with a
  // stale weight vector fails loudly instead of silently ignoring it).
  std::vector<std::uint32_t> wrr_weights{};
  // Technology of the digital match-action stages.
  tcam::TcamTechnology digital_technology =
      tcam::TcamTechnology::MemristorTcam();
  // Analog AQM program applied to every egress port. enable_aqm = false
  // gives the pure tail-drop traffic manager. The traffic manager gives
  // each port and service class its own seed, derived from
  // `aqm.hardware.seed` (stages.cpp).
  bool enable_aqm = true;
  aqm::AnalogAqmConfig aqm{.hardware = {.seed = 0x5317c4}};

  // ---- cognitive analog stages (Fig. 5's "load balancing" and
  // ---- "traffic analysis" slots; both disabled by default) ----
  // ECMP-by-pCAM load balancing: a routed packet whose egress port is in
  // `lb_ports` is re-balanced across that group by analog match degree
  // against per-port load policies, flow-sticky via the flow hash.
  // Empty lb_ports = every port participates.
  bool enable_load_balancer = false;
  std::vector<std::uint32_t> lb_ports{};
  // Analog traffic analysis: one pCAM search tags each routed packet's
  // flow with a class (batch's traffic_class lane + per-class counters).
  bool enable_classifier = false;
  std::vector<cognitive::AnalogTrafficClassifier::ClassSpec>
      classifier_classes{};
  double classifier_min_confidence = 0.05;

  // Telemetry for the whole data plane: stage metrics, engine counters,
  // verdict counters and the per-batch flight recorder. `enabled = false`
  // compiles the instrumentation down to unbound no-op handles (zero
  // metric writes) and skips the flight recorder entirely.
  telemetry::TelemetryConfig telemetry{};

  void Validate() const;  // throws std::invalid_argument
};

// Per-verdict counters. The per-verdict counts partition `injected`:
// forwarded + parse_errors + firewall_denies + no_route + aqm_drops +
// queue_full == injected at every quiescent point (invariant-tested).
// `marked` is not part of the partition: it counts the forwarded packets
// an ECN-enabled AQM CE-marked instead of dropping.
struct SwitchStats {
  std::uint64_t injected = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t marked = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t firewall_denies = 0;
  std::uint64_t no_route = 0;
  std::uint64_t aqm_drops = 0;
  std::uint64_t queue_full = 0;
  std::uint64_t delivered = 0;
};

class LoadBalancerStage;
class TrafficClassStage;
class TrafficManagerStage;

// Firewall TCAM action encoding: SharedTables writes it, FirewallStage
// reads it.
inline constexpr std::uint32_t kFirewallActionPermit = 1;
inline constexpr std::uint32_t kFirewallActionDeny = 0;

// The digital match-action tables of the data plane: the only owner of
// firewall rules and routes. A standalone CognitiveSwitch owns one
// privately; a multi-port runtime (port_runtime.hpp) shares one across
// every port. The controller thread stages mutations
// (AddRoute/AddFirewallRule) and publishes them atomically with
// Commit(); each port's data plane reads the published snapshots
// concurrently and never blocks on a commit. One mutator thread at a
// time; any number of reader ports.
struct SharedTables {
  SharedTables(tcam::TcamTechnology technology, std::size_t port_count);

  // Stage mutations; each returns the entry's stable index so the
  // controller can later withdraw/erase it. Deltas apply at the next
  // Commit().
  std::size_t AddRoute(std::uint32_t dst_ip, int prefix_len,
                       std::size_t port);
  void WithdrawRoute(std::size_t route_index);
  std::size_t AddFirewallRule(const FirewallPattern& pattern, bool permit,
                              std::int32_t priority);
  void EraseFirewallRule(std::size_t rule_index);
  bool NeedsCommit() const {
    return firewall.NeedsCommit() || routes.NeedsCommit();
  }
  // Publishes both tables' staged mutations as fresh snapshots — via
  // the delta path when the staged sets are small (table_delta.hpp).
  void Commit();

  tcam::TcamTable firewall;
  tcam::LpmTable routes;
  std::size_t port_count;
};

// The firewall and route stages of every switch read a SharedTables
// through its published snapshots; the two constructors differ only in
// who owns it.
class CognitiveSwitch {
 public:
  // Standalone switch: owns private tables, programmed through
  // AddRoute/AddFirewallRule and committed at batch entry.
  explicit CognitiveSwitch(SwitchConfig config);
  // Group port: reads `shared` (which must outlive the switch; throws
  // std::invalid_argument when null). Mutations go through the
  // SharedTables owner, so the table mutators below throw and the data
  // plane never auto-commits.
  CognitiveSwitch(SwitchConfig config, const SharedTables* shared);

  // ------------------------------------------------ control plane
  // Installs an IPv4 route (LPM) to an egress port; returns the route's
  // stable index for WithdrawRoute. Throws std::logic_error on a group
  // port.
  std::size_t AddRoute(std::uint32_t dst_ip, int prefix_len,
                       std::size_t port);
  // Stages withdrawal of a previously installed route. Throws
  // std::logic_error on a group port.
  void WithdrawRoute(std::size_t route_index);
  // Installs a firewall rule; higher priority wins; permit=false denies.
  // Returns the rule's stable index for EraseFirewallRule. Throws
  // std::logic_error on a group port.
  std::size_t AddFirewallRule(const FirewallPattern& pattern, bool permit,
                              std::int32_t priority);
  // Stages removal of a previously installed firewall rule. Throws
  // std::logic_error on a group port.
  void EraseFirewallRule(std::size_t rule_index);
  // Publishes any staged route/firewall mutations of the owned tables.
  // The data plane calls this automatically at batch entry, so the
  // classic AddRoute-then-Inject flow keeps working; explicit calls let
  // a caller pay the compile at a chosen instant. No-op on a group port
  // (the SharedTables owner commits).
  void Commit();
  // Inserts a custom stage immediately in front of the traffic manager
  // (the last stage). The stage's meter is bound in the stage ledger.
  MatchActionStage& AddStage(std::unique_ptr<MatchActionStage> stage);
  // Replaces the egress scheduler's WRR weights at a commit boundary:
  // the compiled schedule is rebuilt off the dequeue path and every
  // port's rotation restarts from the initial position. Size must equal
  // service_classes; weights must be nonzero.
  void SetWrrWeights(const std::vector<std::uint32_t>& weights);

  // ------------------------------------------------ data plane
  // Runs one packet through the stage graph at time `now_s`
  // (non-decreasing across calls). A batch of one.
  Verdict Inject(const net::Packet& packet, double now_s);

  // Batched data plane: runs a whole ingress batch arriving at `now_s`
  // through the stage graph. The stateless digital stages fan out over
  // the batch; the traffic manager then commits per packet in order, so
  // verdicts, stats and energy-ledger totals are bit-identical to
  // sequential Inject() calls.
  std::vector<Verdict> InjectBatch(std::span<const net::Packet> packets,
                                   double now_s);

  // InjectBatch without the by-value copy: the returned view aliases the
  // switch's own verdict lane and stays valid until the next Inject,
  // InjectBatch or RunBatch. The port worker runs its batches this way,
  // so a steady-state batch allocates nothing.
  std::span<const Verdict> RunBatch(std::span<const net::Packet> packets,
                                    double now_s);

  // Drains egress queues up to `until_s`, returning deliveries in
  // departure order per port.
  std::vector<Delivery> Drain(double until_s);

  // Allocation-friendly drain: appends deliveries to `out` (reserving
  // from the queued-packet counts, so long drains do not repeatedly
  // reallocate), sorts only the appended region by departure time, and
  // returns the number of deliveries appended. Callers that drain in a
  // loop can reuse one buffer across calls.
  std::size_t DrainInto(double until_s, std::vector<Delivery>& out);

  // ------------------------------------------------ observability
  const SwitchStats& stats() const { return stats_; }
  const energy::EnergyLedger& ledger() const { return ledger_; }
  // Per-stage energy attribution ("stage.<name>" categories). Sums to
  // ledger().TotalJ() — the same joules grouped by pipeline position
  // instead of by hardware category.
  const energy::EnergyLedger& stage_ledger() const { return stage_ledger_; }
  // The stage chain, in processing order (names + metrics).
  const StageGraph& graph() const { return graph_; }
  // Class 0 queue by default; pass service_class for multi-class ports.
  const net::PacketQueue& egress_queue(std::size_t port,
                                       std::size_t service_class = 0) const;
  // The AQM guarding one class queue (each class has its own instance so
  // derivative state never mixes across queues). Null when AQM disabled.
  aqm::AnalogAqm* port_aqm(std::size_t port, std::size_t service_class = 0);
  std::size_t port_count() const { return config_.port_count; }
  std::size_t service_classes() const { return config_.service_classes; }
  // The traffic-analysis stage (null when disabled).
  const TrafficClassStage* classifier_stage() const { return classify_; }
  // The switch's telemetry hub: `stage.<name>.*`, `tcam.*`, `pcam.*`
  // and `switch.*` metrics plus the per-batch flight recorder.
  telemetry::Telemetry& telemetry() { return telemetry_; }
  const telemetry::Telemetry& telemetry() const { return telemetry_; }

 private:
  // Per-verdict counter handles mirroring SwitchStats.
  struct VerdictCounters {
    telemetry::CounterHandle injected, forwarded, parse_errors,
        firewall_denies, no_route, aqm_drops, queue_full;
  };

  // Builds the stage chain over tables_ and binds telemetry.
  void BuildGraph();
  void BindTelemetry();
  void RecordBatchTrace(double now_s);
  // The owned tables; throws std::logic_error on a group port.
  SharedTables& MutableTables();

  SwitchConfig config_;
  std::unique_ptr<SharedTables> private_tables_;  // null on a group port
  const SharedTables* tables_;                    // never null
  energy::DataMovementModel movement_;
  SwitchStats stats_;
  energy::EnergyLedger ledger_;
  energy::EnergyLedger stage_ledger_;
  // Declared before the graph: stages hold handles into the registry, so
  // the registry must outlive them on destruction.
  telemetry::Telemetry telemetry_;
  VerdictCounters verdict_counters_;
  telemetry::CounterHandle batches_counter_;
  telemetry::GaugeHandle queue_depth_gauge_;
  telemetry::HistogramHandle batch_size_hist_;
  StageGraph graph_{&stage_ledger_};
  // Borrowed views into graph-owned stages (valid for the switch's
  // lifetime; the graph owns the objects).
  LoadBalancerStage* lb_ = nullptr;
  TrafficClassStage* classify_ = nullptr;
  TrafficManagerStage* tm_ = nullptr;
  net::PacketBatch batch_;  // reused across calls (lanes never shrink)
};

}  // namespace analognf::arch
