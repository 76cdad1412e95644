// LoadDriver: the closed-loop ingress harness — N producer threads
// pushing TrafficSource batches into per-port SPSC rings, N SwitchGroup
// port workers draining them run-to-completion, and exact offered vs
// achieved vs dropped accounting on top.
//
// Accounting is conservation-exact, not sampled: every packet a
// producer synthesizes is counted offered; it is then either achieved
// (its batch was popped and fully injected — counted by the worker's
// ring hook) or dropped (the ring was full in kDropBatch mode — counted
// by the producer). After the drain protocol (join producers, wait for
// ring empty, DetachRing, release the ring) offered == achieved +
// dropped holds per port and in aggregate, and the switch's own stats()
// partition of `injected` nests inside `achieved`.
//
// Buffer ownership: producers allocate every packet buffer and free the
// spent batches the worker exchanges back through the ring; the worker
// only borrows them. The drain releases each ring right after its
// DetachRing, so the buffers still parked in ring slots are freed
// before the run's wall clock stops, not in teardown.
//
// Determinism: with Overflow::kBlock nothing is ever dropped, so the
// per-port packet stream, batch boundaries and injection clocks are a
// pure function of the workload config — a live run recorded to traces
// and a replay of those traces produce bit-identical SwitchStats and
// energy ledgers (kDropBatch drops depend on wall-clock timing, so only
// the conservation invariant holds there).
//
// Telemetry: each port's registry gains `ingress.offered_packets`,
// `ingress.achieved_packets`, `ingress.dropped_packets` (written once
// post-run from the driver thread, so the sharded cells stay exact) and
// an `ingress.batch_ns` histogram of enqueue-to-retire batch sojourns
// observed by the worker. The worker also records every batch sojourn
// into a vector reserved before the run, and the exact p50/p99 of each
// port's sojourns are reported after it.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "analognf/arch/port_runtime.hpp"
#include "analognf/traffic/source.hpp"

namespace analognf::traffic {

struct LoadReport;

struct LoadDriverConfig {
  std::size_t ports = 4;
  arch::SwitchConfig switch_config{};
  // Per-port workload template. Each port runs an independent source:
  // port p's seed is derived from workload.seed and p, so ports draw
  // different arrivals/flows from the same population.
  WorkloadConfig workload{};
  std::uint64_t packets_per_port = 100'000;  // offered load per port
  std::size_t batch_size = 32;               // packets per ring batch
  std::size_t ring_capacity = 256;           // batches per port ring
  enum class Overflow : std::uint8_t {
    kDropBatch,  // ring full -> count the batch dropped, keep going
    kBlock,      // ring full -> producer spins (lossless, deterministic)
  };
  Overflow overflow = Overflow::kDropBatch;
  // Called after the drain completes and the report is assembled, while
  // the (now idle) group is still alive — the place to snapshot
  // telemetry or dump post-mortems.
  std::function<void(arch::SwitchGroup&, const LoadReport&)> inspect;

  void Validate() const;  // throws std::invalid_argument
};

// One port's ledger for the run.
struct PortLoadStats {
  std::uint64_t offered_packets = 0;
  std::uint64_t achieved_packets = 0;
  std::uint64_t dropped_packets = 0;
  std::uint64_t offered_batches = 0;
  std::uint64_t achieved_batches = 0;
  std::uint64_t dropped_batches = 0;
  double model_time_s = 0.0;  // last arrival timestamp the port reached
  double p50_batch_ns = 0.0;  // enqueue-to-retire sojourn quantiles
  double p99_batch_ns = 0.0;
  arch::SwitchStats stats{};  // the port switch's own verdict partition
  double energy_j = 0.0;      // the port's canonical ledger total
};

struct LoadReport {
  std::vector<PortLoadStats> ports;
  // Aggregates over every port (offered == achieved + dropped, exact).
  std::uint64_t offered_packets = 0;
  std::uint64_t achieved_packets = 0;
  std::uint64_t dropped_packets = 0;
  double wall_s = 0.0;          // produce-to-drain wall time
  double achieved_mpps = 0.0;   // achieved_packets / wall_s / 1e6
  arch::SwitchStats stats{};    // aggregate verdict partition
  double energy_j = 0.0;        // aggregate switch energy
};

class LoadDriver {
 public:
  explicit LoadDriver(LoadDriverConfig config);

  // Runs the live workload. When `record` is non-null it is resized to
  // one Trace per port and each port's emitted stream is captured —
  // feed the result to RunReplay for a bit-identical re-run (use
  // Overflow::kBlock for that; see the determinism note above).
  LoadReport Run(std::vector<Trace>* record = nullptr);

  // Replays previously recorded traces, one per port (size must equal
  // ports). packets_per_port is ignored — each trace plays to its end.
  LoadReport RunReplay(const std::vector<Trace>& traces);

 private:
  // `max_batches` bounds the batches any one port retires; the worker
  // hooks reserve that many sojourn samples up front.
  LoadReport Drive(std::vector<TrafficSource> sources,
                   std::uint64_t packet_limit, std::size_t max_batches);

  LoadDriverConfig config_;
};

}  // namespace analognf::traffic
