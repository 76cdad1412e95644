// Concurrent multi-port runtime: N per-port data planes over one set of
// epoch-published table snapshots.
//
// The paper's switch has many ports fed in parallel while the cognitive
// controller keeps reprogramming tables (prog_pCAM / update_pCAM, route
// updates). This layer maps that onto threads without putting a single
// lock on the packet path:
//
//   * SharedTables (switch.hpp) — the controller-owned firewall TCAM and
//     LPM table. Mutations stage; Commit() compiles and publishes an
//     immutable snapshot RCU-style (common/snapshot.hpp).
//   * PortRuntime — one worker thread per port, draining a bounded
//     mailbox of ingress batches and control commands into a private
//     CognitiveSwitch that reads the group's SharedTables (a standalone
//     switch reads its own SharedTables the same way). Each batch
//     acquires the published snapshots; each port keeps its own energy
//     ledger, stats and telemetry (the worker registers a
//     ThreadPool external slot so sharded counters stay exact).
//   * SwitchGroup — the assembly: the controller thread stages and
//     commits table updates and broadcasts pCAM reprogramming commands;
//     data sources submit batches per port. Commands apply at batch
//     boundaries on the owning worker, so every switch stays
//     single-threaded internally — the concurrency lives entirely in the
//     snapshot layer, where readers always see either the old or the new
//     fully-compiled table.
//
// See docs/ARCHITECTURE.md, "Concurrency contract".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "analognf/arch/switch.hpp"
#include "analognf/common/spsc_ring.hpp"

namespace analognf::arch {

// One port's data plane: a dedicated worker thread, a bounded mailbox,
// and a private CognitiveSwitch reading the group's SharedTables.
class PortRuntime {
 public:
  // An ingress batch bound for this port. Packets are owned by the item
  // (moved in) so the submitter can retire its buffers immediately.
  struct Batch {
    std::vector<net::Packet> packets;
    double now_s = 0.0;
    // Optional steady-clock stamp set by ring producers; rides along so
    // the ring-batch hook can report enqueue-to-completion sojourn.
    std::uint64_t enqueue_ns = 0;
  };
  // A control command; runs on the worker between batches with exclusive
  // access to the port's switch.
  using Command = std::function<void(CognitiveSwitch&)>;

  // Builds the port's switch as a reader of `tables` and starts the
  // worker. `tables` must outlive the runtime; null throws
  // std::invalid_argument. The mailbox is bounded; Submit blocks when
  // it is full (backpressure, never drops).
  PortRuntime(SwitchConfig config, const SharedTables* tables);
  ~PortRuntime();

  PortRuntime(const PortRuntime&) = delete;
  PortRuntime& operator=(const PortRuntime&) = delete;

  // Enqueues an ingress batch (blocks while the mailbox is full).
  void Submit(Batch batch);
  // Enqueues a control command (same mailbox, so it applies at a batch
  // boundary, in submission order relative to batches).
  void Apply(Command command);
  // Blocks until every submitted item has fully executed.
  void WaitIdle();

  // ---- ring-fed run-to-completion mode (the src/traffic ingress) ----
  // One lock-free SPSC ring of ingress batches; the port worker is the
  // single consumer, one producer thread pushes.
  using IngressRing = analognf::SpscRing<Batch>;
  // Completion record handed to the (optional) per-batch hook, invoked
  // on the worker thread after each ring batch retires.
  struct RingBatchInfo {
    std::size_t packets = 0;
    std::uint64_t enqueue_ns = 0;  // producer stamp (0 if unset)
    std::uint64_t start_ns = 0;    // processing began (steady clock)
    std::uint64_t done_ns = 0;     // processing finished
  };
  using RingHook = std::function<void(const RingBatchInfo&)>;

  // Attaches `ring` as the worker's run-to-completion ingress: whenever
  // the mailbox is empty the worker polls the ring and processes popped
  // batches back-to-back. Mailbox items (Submit/Apply) still take
  // priority, so control commands keep applying at batch boundaries.
  // The attach itself travels the mailbox, so it also lands at a batch
  // boundary. `ring` must stay alive until DetachRing() returns.
  void AttachRing(IngressRing* ring, RingHook hook = {});
  // Detaches the current ring. Blocks until the worker has retired any
  // in-flight ring batch and will no longer touch the ring; pending
  // batches still in the ring are NOT drained (the caller owns them).
  // Callers wanting a full drain wait for ring->Empty() first — after
  // that, DetachRing() returning implies every popped batch has fully
  // executed. The worker frees no ring batch: TryPop exchanges its spent
  // batch back into the ring (common/spsc_ring.hpp), and the detach
  // releases the last one it held, so once DetachRing() returns the
  // runtime holds none of the caller's buffers. The ring's slots still
  // hold spent batches until the producer overwrites them or the ring
  // is destroyed.
  void DetachRing();

  // The port's switch. Single-threaded object: touch it only from
  // commands (which run on the worker) or after WaitIdle() with no
  // further Submit/Apply in flight.
  CognitiveSwitch& device() { return switch_; }
  const CognitiveSwitch& device() const { return switch_; }

  // The worker's registered telemetry slot (ThreadPool::CurrentSlot()
  // value on the worker); 0 until the worker has started up.
  std::size_t worker_slot() const {
    return slot_.load(std::memory_order_acquire);
  }

 private:
  struct Item {
    Batch batch;
    Command command;  // non-null = control item, batch ignored
    // Ring control: when set, the worker swaps its ring pointer/hook to
    // these values (null detaches). Takes precedence over the fields
    // above. Routed through the mailbox so the swap is a plain
    // worker-local assignment at a batch boundary — no cross-thread
    // pointer handoff to race on.
    bool ring_op = false;
    IngressRing* ring = nullptr;
    RingHook hook;
  };

  void WorkerLoop();

  CognitiveSwitch switch_;
  std::mutex mutex_;
  std::condition_variable cv_submit_;  // worker waits: work available
  std::condition_variable cv_state_;   // submitters wait: space / idle
  std::deque<Item> mailbox_;
  std::size_t in_flight_ = 0;  // queued + currently executing
  bool stop_ = false;
  std::atomic<std::size_t> slot_{0};
  std::thread worker_;  // last: starts after all state is ready
};

// A multi-port switch assembly: one SharedTables control plane, one
// PortRuntime per port. The controller thread owns table mutations and
// Commit(); any thread may submit batches (one submitter per port at a
// time keeps arrival order deterministic).
class SwitchGroup {
 public:
  // `ports` port runtimes, each configured from `config` (telemetry
  // shard counts are widened to cover every worker's slot).
  SwitchGroup(std::size_t ports, SwitchConfig config);

  std::size_t ports() const { return runtimes_.size(); }

  // ------------------------------------------------ control plane
  // Stages a route / firewall rule into the shared tables (returning
  // its stable index) or withdraws one previously staged+committed. Not
  // visible to the data plane until Commit().
  std::size_t AddRoute(std::uint32_t dst_ip, int prefix_len,
                       std::size_t port);
  void WithdrawRoute(std::size_t route_index);
  std::size_t AddFirewallRule(const FirewallPattern& pattern, bool permit,
                              std::int32_t priority);
  void EraseFirewallRule(std::size_t rule_index);
  // Publishes all staged table mutations as fresh snapshots — deltas
  // applied at a batch boundary: in-flight batches keep the snapshot
  // they already acquired; later batches see the new one. Small staged
  // sets patch the published snapshots instead of recompiling them
  // (common/table_delta.hpp; see tables().firewall.commit_stats()).
  void Commit();
  // Broadcasts an analog AQM reprogram (update_pCAM) to every port,
  // applied at each port's next batch boundary.
  void ProgramAqmTarget(double target_delay_s, double max_deviation_s);

  // ------------------------------------------------ data plane
  // Enqueues a batch on `port`'s mailbox (blocks while full).
  void Submit(std::size_t port, std::vector<net::Packet> packets,
              double now_s);
  // Blocks until every port has drained its mailbox.
  void WaitIdle();

  // ------------------------------------------------ observability
  SharedTables& tables() { return tables_; }
  const SharedTables& tables() const { return tables_; }
  PortRuntime& runtime(std::size_t port) { return *runtimes_.at(port); }
  // The port's switch; see PortRuntime::device() for the threading rule.
  CognitiveSwitch& device(std::size_t port) {
    return runtimes_.at(port)->device();
  }
  // Sum of every port's SwitchStats. Call only while idle (after
  // WaitIdle with no concurrent submitters).
  SwitchStats AggregateStats() const;
  // Sum of every port's canonical ledger, in joules.
  double TotalEnergyJ() const;

 private:
  SharedTables tables_;
  std::vector<std::unique_ptr<PortRuntime>> runtimes_;
};

}  // namespace analognf::arch
