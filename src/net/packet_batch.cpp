#include "analognf/net/packet_batch.hpp"

namespace analognf::net {

std::string ToString(Verdict verdict) {
  switch (verdict) {
    case Verdict::kForwarded:
      return "forwarded";
    case Verdict::kParseError:
      return "parse-error";
    case Verdict::kFirewallDeny:
      return "firewall-deny";
    case Verdict::kNoRoute:
      return "no-route";
    case Verdict::kAqmDrop:
      return "aqm-drop";
    case Verdict::kQueueFull:
      return "queue-full";
  }
  return "unknown";
}

void PacketBatch::Reset(const Packet* packets, std::size_t count,
                        double now_s) {
  packets_ = packets;
  count_ = count;
  now_s_ = now_s;
  // `parsed` is sized by the parse stage (Parser::ParseBatch resizes it);
  // every other lane resets to its pre-pipeline default here.
  arrival_s.assign(count, now_s);
  verdicts.assign(count, Verdict::kForwarded);
  searched_firewall.assign(count, 0);
  searched_route.assign(count, 0);
  route_port.assign(count, kNoPort);
  flow_hash.assign(count, 0);
  priority.assign(count, 0);
  ect.assign(count, 0);
  service_class.assign(count, 0);
  traffic_class.assign(count, kNoClass);
  analog_commits.clear();
  pcam_degrees.Clear();
  firewall_search_j = 0.0;
  route_search_j = 0.0;
}

}  // namespace analognf::net
