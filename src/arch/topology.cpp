#include "analognf/arch/topology.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <unordered_map>

namespace analognf::arch {
namespace {

// Simulation step (drain/forward granularity).
constexpr double kStepS = 0.001;
// Destination network of every generated packet: 10.0.0.0.
constexpr std::uint32_t kDstNetwork = 0x0a000000;

}  // namespace

void TopologyConfig::Validate() const {
  if (hops == 0) {
    throw std::invalid_argument("TopologyConfig: zero hops");
  }
  // A NaN delay would break the ordering of the in-flight calendar.
  if (!std::isfinite(propagation_delay_s) || propagation_delay_s < 0.0) {
    throw std::invalid_argument(
        "TopologyConfig: propagation delay not finite >= 0");
  }
  // An infinite duration would never end the run.
  if (!std::isfinite(duration_s) || !(duration_s > 0.0) || warmup_s < 0.0 ||
      warmup_s >= duration_s) {
    throw std::invalid_argument("TopologyConfig: bad duration/warmup");
  }
  if (dst_prefix_len < 0 || dst_prefix_len > 32) {
    throw std::invalid_argument("TopologyConfig: bad prefix length");
  }
  hop.Validate();
}

LineTopology::LineTopology(TopologyConfig config)
    : config_([&] {
        config.Validate();
        return config;
      }()) {
  switches_.reserve(config_.hops);
  for (std::size_t k = 0; k < config_.hops; ++k) {
    SwitchConfig hop_config = config_.hop;
    hop_config.seed = config_.hop.seed + 0x701 * (k + 1);
    auto sw = std::make_unique<CognitiveSwitch>(hop_config);
    sw->AddRoute(kDstNetwork, config_.dst_prefix_len, 0);
    switches_.push_back(std::move(sw));
  }
}

net::Packet LineTopology::Materialize(const net::PacketMeta& meta) const {
  net::EthernetHeader eth;
  eth.dst = {2, 0, 0, 0, 0, 1};
  eth.src = {2, 0, 0, 0, 0, 2};
  net::Ipv4Header ip;
  // A stable per-flow source address inside 8.0.0.0/8.
  ip.src_ip = 0x08000000u |
              static_cast<std::uint32_t>(meta.flow_hash & 0x00ffffff);
  ip.dst_ip = kDstNetwork | 0x5;
  ip.protocol = net::kIpProtoUdp;
  ip.dscp = meta.priority >= 4 ? std::uint8_t{46} : std::uint8_t{0};
  net::UdpHeader udp;
  udp.src_port = static_cast<std::uint16_t>(1024 + (meta.flow_hash & 0xfff));
  udp.dst_port = 4000;
  // Keep the wire size close to the metadata size (headers included).
  const std::size_t overhead = net::EthernetHeader::kSize +
                               net::Ipv4Header::kSize +
                               net::UdpHeader::kSize;
  const std::size_t payload =
      meta.size_bytes > overhead ? meta.size_bytes - overhead : 1;
  return net::PacketBuilder()
      .Ethernet(eth)
      .Ipv4(ip)
      .Udp(udp)
      .Payload(payload)
      .Build();
}

TopologyReport LineTopology::Run(net::MetaSource& source) {
  TopologyReport report;
  report.hop_delay.resize(switches_.size());

  struct Pending {
    std::size_t hop;
    net::Packet packet;
    double origin_ingress_s;
  };
  std::multimap<double, Pending> pending;
  // Per-hop: mirror of the switch's id counter + origin-time lookup.
  std::vector<std::uint64_t> ids_assigned(switches_.size(), 0);
  std::vector<std::unordered_map<std::uint64_t, double>> origin_time(
      switches_.size());
  std::vector<double> last_inject_s(switches_.size(), 0.0);

  net::PacketMeta next_arrival = source.Next();
  std::vector<Delivery> drained;  // reused across drain calls

  // Per-hop ingress batches: same-instant injects ride the switch's
  // batched stage-graph path in one call. InjectBatch is bit-identical
  // to sequential Inject calls, so buffering cannot change verdicts,
  // ids, stats or energy — only how many times the pipeline is entered.
  struct HopBatch {
    double now = 0.0;
    std::vector<net::Packet> packets;
    std::vector<double> origins;  // origin ingress time per packet
  };
  std::vector<HopBatch> batches(switches_.size());

  auto flush = [&](std::size_t hop) {
    HopBatch& b = batches[hop];
    if (b.packets.empty()) return;
    const std::vector<Verdict> verdicts =
        switches_[hop]->InjectBatch(b.packets, b.now);
    for (std::size_t j = 0; j < verdicts.size(); ++j) {
      const Verdict verdict = verdicts[j];
      if (verdict == Verdict::kForwarded || verdict == Verdict::kAqmDrop ||
          verdict == Verdict::kQueueFull) {
        const std::uint64_t id = ids_assigned[hop]++;
        if (verdict == Verdict::kForwarded) {
          origin_time[hop][id] = b.origins[j];
        }
      }
    }
    b.packets.clear();
    b.origins.clear();
  };

  auto inject = [&](std::size_t hop, net::Packet packet, double when_s,
                    double origin_ingress_s) {
    const double now = std::max(when_s, last_inject_s[hop]);
    last_inject_s[hop] = now;
    HopBatch& b = batches[hop];
    // A batch holds one arrival instant; a new instant flushes the old.
    if (!b.packets.empty() && b.now != now) flush(hop);
    b.now = now;
    b.packets.push_back(std::move(packet));
    b.origins.push_back(origin_ingress_s);
  };

  for (double t = 0.0; t <= config_.duration_s; t += kStepS) {
    // 1. Fresh arrivals into hop 0.
    while (next_arrival.arrival_time_s <= t) {
      ++report.offered;
      inject(0, Materialize(next_arrival), next_arrival.arrival_time_s,
             next_arrival.arrival_time_s);
      next_arrival = source.Next();
      if (next_arrival.arrival_time_s > config_.duration_s) {
        next_arrival.arrival_time_s = config_.duration_s * 2.0;  // stop
        break;
      }
    }
    // 2. In-flight packets reaching their next hop.
    while (!pending.empty() && pending.begin()->first <= t) {
      const auto it = pending.begin();
      inject(it->second.hop, std::move(it->second.packet), it->first,
             it->second.origin_ingress_s);
      pending.erase(it);
    }
    // All buffered injects must land before this step's drains.
    for (std::size_t k = 0; k < switches_.size(); ++k) flush(k);
    // 3. Drain every hop; forward deliveries down the line.
    for (std::size_t k = 0; k < switches_.size(); ++k) {
      drained.clear();
      switches_[k]->DrainInto(t, drained);
      for (const Delivery& d : drained) {
        const auto origin = origin_time[k].find(d.meta.id);
        if (origin == origin_time[k].end()) continue;  // pre-tracking
        const double t0 = origin->second;
        origin_time[k].erase(origin);
        if (d.departure_s >= config_.warmup_s) {
          report.hop_delay[k].Add(d.sojourn_s);
        }
        const double arrive_next =
            d.departure_s + config_.propagation_delay_s;
        if (k + 1 < switches_.size()) {
          // Rebuild the wire packet for the next hop's parser. The
          // delivered metadata does not carry bytes, so re-materialise.
          net::PacketMeta meta = d.meta;
          pending.emplace(arrive_next,
                          Pending{k + 1, Materialize(meta), t0});
        } else {
          ++report.delivered;
          const double e2e = arrive_next - t0;
          if (arrive_next >= config_.warmup_s) {
            report.end_to_end.Add(e2e);
            report.end_to_end_trace.Append(arrive_next, e2e);
          }
        }
      }
    }
  }

  // Late injects (after the final drain) still count in the hop stats.
  for (std::size_t k = 0; k < switches_.size(); ++k) flush(k);

  for (const auto& sw : switches_) {
    report.hop_stats.push_back(sw->stats());
    report.total_pcam_energy_j +=
        sw->ledger().Of(energy::category::kPcamSearch).energy_j;
  }
  return report;
}

}  // namespace analognf::arch
