// First-class ingress batch: the structure-of-arrays unit of work the
// match-action stage graph operates on.
//
// The Fig. 5 pipeline is composable — parser, digital MATs, analog MATs,
// cognitive traffic manager — and every stage is batch-oriented: it reads
// and writes whole per-packet *lanes* rather than one packet at a time.
// A PacketBatch is a non-owning view over the ingress packets plus those
// lanes (parse results, verdicts, route/class tags, per-flow hashes).
// Stages communicate exclusively through lanes, which is what makes the
// stages interchangeable slots: a stage only depends on the lanes it
// reads, never on which stage produced them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analognf/net/packet.hpp"
#include "analognf/net/parser.hpp"

namespace analognf::net {

// Final disposition of an injected packet. Settled progressively: a
// packet starts kForwarded and any stage may settle a terminal verdict;
// later stages skip packets whose verdict is no longer kForwarded.
enum class Verdict : std::uint8_t {
  kForwarded,     // enqueued on an egress port
  kParseError,
  kFirewallDeny,
  kNoRoute,
  kAqmDrop,       // analog AQM admission drop
  kQueueFull,     // egress tail drop
};

std::string ToString(Verdict verdict);

// Structure-of-arrays batch state. All lanes are sized to size() by
// Reset(); the vectors are reused across batches and never shrink.
class PacketBatch {
 public:
  // route_port lane value for "no egress port selected".
  static constexpr std::uint32_t kNoPort = 0xffffffffu;
  // traffic_class lane value for "not classified".
  static constexpr std::uint32_t kNoClass = 0xffffffffu;

  PacketBatch() = default;

  // Rebinds the batch to `count` packets arriving at `now_s` and resets
  // every lane to its pre-pipeline default. The packet storage is NOT
  // copied; the caller keeps it alive for the batch's lifetime.
  void Reset(const Packet* packets, std::size_t count, double now_s);

  std::size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  double now_s() const { return now_s_; }
  const Packet& packet(std::size_t i) const { return packets_[i]; }
  const Packet* packets_data() const { return packets_; }

  // ------------------------------------------------------------- lanes
  // Parse results, one per packet (filled by the parse stage).
  std::vector<ParsedPacket> parsed;
  // Arrival timestamp lane (today: every entry equals now_s()).
  std::vector<double> arrival_s;
  // Progressive verdicts; kForwarded means "still in flight".
  std::vector<Verdict> verdicts;
  // 1 if the firewall TCAM searched this packet (energy is charged per
  // search, hit or miss, so the commit stage needs the exact set).
  std::vector<std::uint8_t> searched_firewall;
  // 1 if the LPM engine looked this packet up.
  std::vector<std::uint8_t> searched_route;
  // Selected egress port (kNoPort until a routing stage decides).
  std::vector<std::uint32_t> route_port;
  // Stable per-flow hash (FNV-1a over the 5-tuple; 0 if unparsed).
  std::vector<std::uint64_t> flow_hash;
  // 3-bit priority derived from the DSCP class-selector bits.
  std::vector<std::uint8_t> priority;
  // 1 if the IPv4 ECN field is nonzero (ECT(0), ECT(1) or CE): the
  // sender is ECN-capable, so an ECN-enabled AQM may mark instead of drop.
  std::vector<std::uint8_t> ect;
  // Egress service class, filled by the traffic manager at commit.
  std::vector<std::uint32_t> service_class;
  // Analog traffic-analysis tag (kNoClass until a classifier stage runs).
  std::vector<std::uint32_t> traffic_class;

  // Energy of one search cycle against the table snapshot the firewall /
  // route stage actually searched for this batch, set by those stages.
  // The traffic manager charges the canonical ledger from these instead
  // of re-reading the (possibly concurrently mutated) live tables, so
  // ledger totals follow the snapshot the packets really saw.
  double firewall_search_j = 0.0;
  double route_search_j = 0.0;

  // One deferred canonical-ledger commit: `energy_j` joules of analog
  // (pCAM) search energy spent on packet `packet` by a stage that runs
  // before the traffic manager.
  struct AnalogCommit {
    std::uint32_t packet = 0;
    double energy_j = 0.0;
  };
  // Deferred analog energy, appended by pre-commit analog stages (load
  // balancer, classifier, custom stages) in processing order. The
  // traffic manager replays these per packet, in append order, into the
  // canonical ledger — that keeps ledger totals bit-identical between
  // batched and one-packet-at-a-time execution even though the analog
  // stages fan out over the batch (floating-point accumulation order is
  // part of the determinism contract).
  std::vector<AnalogCommit> analog_commits;

  // Running min/max/sum over a stream of analog match probabilities
  // (pCAM match degrees, classifier confidences, AQM drop probabilities)
  // observed while this batch flowed through the pipeline. Telemetry
  // only: folded into the flight-recorder trace record, never read by
  // any stage.
  struct DegreeSummary {
    std::uint64_t count = 0;
    double min = 0.0;
    double max = 0.0;
    double sum = 0.0;

    void Fold(double degree) {
      if (count == 0) {
        min = max = sum = degree;
      } else {
        if (degree < min) min = degree;
        if (degree > max) max = degree;
        sum += degree;
      }
      ++count;
    }
    void Clear() { count = 0; min = max = sum = 0.0; }
  };
  DegreeSummary pcam_degrees;

 private:
  const Packet* packets_ = nullptr;
  std::size_t count_ = 0;
  double now_s_ = 0.0;
};

}  // namespace analognf::net
