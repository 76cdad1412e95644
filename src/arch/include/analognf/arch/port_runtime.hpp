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
//   * PortRuntime — one worker thread per port, polling one lock-free
//     SPSC ring of ingress batches (the port's own ring, fed by Submit,
//     or a ring a producer attached) into a private CognitiveSwitch that
//     reads the group's SharedTables (a standalone switch reads its own
//     SharedTables the same way). Each batch acquires the published
//     snapshots; each port keeps its own energy ledger, stats and
//     telemetry, which only the port's worker writes while it runs.
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
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "analognf/arch/switch.hpp"
#include "analognf/common/spsc_ring.hpp"

namespace analognf::arch {

// One port's data plane: a dedicated worker thread, one polled ingress
// ring, and a private CognitiveSwitch reading the group's SharedTables.
class PortRuntime {
 public:
  // An ingress batch bound for this port. Packets are owned by the batch
  // (moved in); the worker only borrows them and exchanges the spent
  // batch back into the ring, so whoever pushed them frees them.
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

  // One lock-free SPSC ring of ingress batches; the port worker is the
  // single consumer, one producer thread pushes.
  using IngressRing = analognf::SpscRing<Batch>;
  // Completion record handed to the (optional) per-batch hook, invoked
  // on the worker thread after each attached-ring batch retires.
  struct RingBatchInfo {
    std::size_t packets = 0;
    std::uint64_t enqueue_ns = 0;  // producer stamp (0 if unset)
    std::uint64_t start_ns = 0;    // processing began (steady clock)
    std::uint64_t done_ns = 0;     // processing finished
  };
  using RingHook = std::function<void(const RingBatchInfo&)>;

  // Builds the port's switch as a reader of `tables` and starts the
  // worker. `tables` must outlive the runtime; null throws
  // std::invalid_argument.
  PortRuntime(SwitchConfig config, const SharedTables* tables);
  // Drains the port's own ring, runs every queued command, and joins.
  ~PortRuntime();

  PortRuntime(const PortRuntime&) = delete;
  PortRuntime& operator=(const PortRuntime&) = delete;

  // Pushes an ingress batch onto the port's own ring, spinning while it
  // is full (backpressure, never drops). One submitting thread at a
  // time; throws std::logic_error while a ring is attached.
  void Submit(Batch batch);
  // Queues a control command, from any thread. It runs at the first
  // batch boundary after every batch Submit()ted before the call has
  // retired, so it keeps submission order relative to batches.
  void Apply(Command command);
  // A fence: blocks until every batch submitted and every command
  // queued before the call has fully executed.
  void WaitIdle();

  // Attaches `ring` as the worker's run-to-completion ingress in place
  // of the port's own ring; each popped batch is reported through
  // `hook`. The attach is a command, so it lands after every batch
  // already submitted. `ring` must stay alive until DetachRing() returns.
  void AttachRing(IngressRing* ring, RingHook hook = {});
  // Detaches the ring and waits, like WaitIdle(), until the worker has
  // retired any in-flight ring batch and will no longer touch the ring.
  // Batches still in the ring are NOT drained: callers wanting a full
  // drain wait for ring->Empty() first. The worker frees no ring batch
  // (TryPop exchanges the spent one back, common/spsc_ring.hpp), and
  // once DetachRing() returns the runtime holds none of the caller's
  // buffers; the ring's slots keep spent batches until overwritten.
  void DetachRing();

  // The port's switch. Single-threaded object: touch it only from
  // commands (which run on the worker) or after WaitIdle() with no
  // further Submit/Apply in flight.
  CognitiveSwitch& device() { return switch_; }
  const CognitiveSwitch& device() const { return switch_; }

 private:
  // A queued command and the own-ring batch count it waits for.
  struct PendingCommand {
    std::uint64_t ticket;
    Command run;
  };
  static constexpr std::uint64_t kNoCommand = ~std::uint64_t{0};

  void WorkerLoop();
  // Runs, in queue order, every command whose ticket is <= `retired`.
  void RunDueCommands(std::uint64_t retired);

  CognitiveSwitch switch_;
  IngressRing own_ring_{8};
  std::atomic<std::uint64_t> submitted_{0};  // batches pushed by Submit
  std::atomic<bool> attached_{false};
  // Worker-only: the polled ring and its hook. Changed by the attach and
  // detach commands, which run on the worker.
  IngressRing* ring_ = &own_ring_;
  RingHook hook_;
  std::mutex mutex_;                     // guards commands_
  std::condition_variable cv_;           // the idle worker waits here
  std::vector<PendingCommand> commands_;  // tickets non-decreasing
  // Ticket of commands_.front() (kNoCommand if empty): the worker's
  // lock-free check at each batch boundary.
  std::atomic<std::uint64_t> next_ticket_{kNoCommand};
  std::atomic<bool> stop_{false};
  std::thread worker_;  // last: starts after all state is ready
};

// A multi-port switch assembly: one SharedTables control plane, one
// PortRuntime per port. The controller thread owns table mutations and
// Commit(); any thread may submit batches, one thread per port at a time
// (each port's own ring has a single producer).
class SwitchGroup {
 public:
  // `ports` port runtimes, each configured from `config`.
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
  // Pushes a batch onto `port`'s own ring (spins while full).
  void Submit(std::size_t port, std::vector<net::Packet> packets,
              double now_s);
  // Blocks until every port has run every batch and command queued so
  // far.
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

 private:
  SharedTables tables_;
  std::vector<std::unique_ptr<PortRuntime>> runtimes_;
};

}  // namespace analognf::arch
