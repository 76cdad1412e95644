#include "analognf/arch/stages.hpp"

#include <algorithm>
#include <stdexcept>

namespace analognf::arch {

// ----------------------------------------------------------- ParseStage

ParseStage::ParseStage(const energy::DataMovementModel* movement)
    : MatchActionStage("parse"), movement_(movement) {}

void ParseStage::Process(net::PacketBatch& batch) {
  const std::size_t n = batch.size();
  parser_.ParseBatch(batch.packets_data(), n, batch.parsed);
  energy::CategoryTotal& meter = stage_meter();
  for (std::size_t i = 0; i < n; ++i) {
    // Header extraction is a digital operation with the classic
    // storage<->compute shuttling cost; it is spent on every packet,
    // parseable or not. (The canonical ledger is charged by the traffic
    // manager; this is the per-stage attribution.) For any packet with
    // a full Eth+IPv4+L4 header this is a constant 336 bits — at the
    // default movement parameters 0.1512 nJ/packet (405 fJ/bit of wire +
    // storage movement and 45 fJ/bit of compute), which is why the parse
    // stage's energy column is flat across batch sizes and dominates the
    // pipeline: it is the digital data-movement tax the paper's analog
    // co-location argument targets, not something batching can amortise.
    const auto header_bits = static_cast<std::uint64_t>(
        8 * std::min<std::size_t>(batch.packet(i).size(), 42));
    const energy::MovementBreakdown& cost =
        header_cost_.Of(*movement_, header_bits);
    meter.energy_j += cost.compute_j;
    ++meter.operations;
    meter.energy_j += cost.movement_j;
    ++meter.operations;
    if (!batch.parsed[i].ok()) {
      batch.verdicts[i] = net::Verdict::kParseError;
      continue;
    }
    // The routing/firewall data plane is IPv4; a well-formed IPv6 packet
    // parses but has no route here.
    if (!batch.parsed[i].ipv4.has_value()) {
      batch.verdicts[i] = net::Verdict::kNoRoute;
      continue;
    }
    batch.flow_hash[i] = batch.parsed[i].Key().Hash();
    // DSCP class selector bits map onto our 3-bit priority.
    batch.priority[i] =
        static_cast<std::uint8_t>(batch.parsed[i].ipv4->dscp >> 3);
    batch.ect[i] = batch.parsed[i].ipv4->ecn != 0 ? 1 : 0;
  }
}

// -------------------------------------------------------- FirewallStage

FirewallStage::FirewallStage(const tcam::TcamTable* table)
    : MatchActionStage("firewall"), table_(table) {}

void FirewallStage::Process(net::PacketBatch& batch) {
  const std::size_t n = batch.size();
  eligible_.clear();
  // Reuse the per-slot BitKey allocations across batches: grow the key
  // vector to the eligible count, rebuild each key in place, then trim.
  std::size_t m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (batch.verdicts[i] != net::Verdict::kForwarded) continue;
    if (!batch.parsed[i].ipv4.has_value()) continue;
    eligible_.push_back(i);
    if (m == keys_.size()) keys_.emplace_back();
    FiveTupleKeyInto(batch.parsed[i].Key(), keys_[m]);
    ++m;
  }
  keys_.resize(m);
  energy::CategoryTotal& meter = stage_meter();
  // The snapshot pins the row set AND the per-cycle energy for the whole
  // batch.
  const auto snap = table_->snapshot();
  snap->engine.SearchBatch(keys_.data(), keys_.size(), hits_);
  batch.firewall_search_j = snap->search_energy_j;
  for (std::size_t j = 0; j < eligible_.size(); ++j) {
    const std::size_t i = eligible_[j];
    batch.searched_firewall[i] = 1;
    meter.energy_j += snap->search_energy_j;
    ++meter.operations;
    const auto& hit = hits_[j];
    if (hit.has_value() && hit->action == kFirewallActionDeny) {
      batch.verdicts[i] = net::Verdict::kFirewallDeny;
    }
  }
}

// ----------------------------------------------------------- RouteStage

RouteStage::RouteStage(const tcam::LpmTable* routes)
    : MatchActionStage("route"), routes_(routes) {}

void RouteStage::Process(net::PacketBatch& batch) {
  const std::size_t n = batch.size();
  eligible_.clear();
  addrs_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (batch.verdicts[i] != net::Verdict::kForwarded) continue;
    if (!batch.parsed[i].ipv4.has_value()) continue;
    eligible_.push_back(i);
    addrs_.push_back(batch.parsed[i].ipv4->dst_ip);
  }
  energy::CategoryTotal& meter = stage_meter();
  // One acquired snapshot answers the whole batch and prices each
  // lookup.
  const auto snap = routes_->snapshot();
  snap->engine.LookupBatch(addrs_.data(), addrs_.size(), hits_);
  batch.route_search_j = snap->search_energy_j;
  for (std::size_t j = 0; j < eligible_.size(); ++j) {
    const std::size_t i = eligible_[j];
    batch.searched_route[i] = 1;
    meter.energy_j += snap->search_energy_j;
    ++meter.operations;
    const auto& hit = hits_[j];
    if (hit.has_value()) {
      batch.route_port[i] = hit->action;
    } else {
      batch.verdicts[i] = net::Verdict::kNoRoute;
    }
  }
}

// ---------------------------------------------------- LoadBalancerStage

LoadBalancerStage::LoadBalancerStage(std::vector<std::uint32_t> ports,
                                     std::size_t port_count)
    : MatchActionStage("load-balancer"),
      ports_([&] {
        if (ports.empty()) {
          ports.resize(port_count);
          for (std::size_t p = 0; p < port_count; ++p) {
            ports[p] = static_cast<std::uint32_t>(p);
          }
        }
        return std::move(ports);
      }()),
      balancer_(ports_.size()) {
  member_.assign(port_count, 0);
  for (std::uint32_t p : ports_) {
    if (p >= port_count) {
      throw std::invalid_argument("LoadBalancerStage: port out of range");
    }
    member_[p] = 1;
  }
}

void LoadBalancerStage::Process(net::PacketBatch& batch) {
  const std::size_t n = batch.size();
  energy::CategoryTotal& meter = stage_meter();
  for (std::size_t i = 0; i < n; ++i) {
    if (batch.verdicts[i] != net::Verdict::kForwarded) continue;
    const std::uint32_t port = batch.route_port[i];
    if (port >= member_.size() || member_[port] == 0) continue;
    const double before_j = balancer_.ConsumedEnergyJ();
    const auto pick = balancer_.PickForFlow(batch.flow_hash[i]);
    const double delta_j = balancer_.ConsumedEnergyJ() - before_j;
    batch.analog_commits.push_back({static_cast<std::uint32_t>(i), delta_j});
    meter.energy_j += delta_j;
    ++meter.operations;
    if (pick.has_value()) {
      batch.route_port[i] = ports_[*pick];
      // Telemetry only: the picked backend's match degree.
      batch.pcam_degrees.Fold(balancer_.last_degrees()[*pick]);
    }
  }
}

// ---------------------------------------------------- TrafficClassStage

TrafficClassStage::TrafficClassStage(
    const std::vector<cognitive::AnalogTrafficClassifier::ClassSpec>& classes,
    double min_confidence)
    : MatchActionStage("traffic-class"), min_confidence_(min_confidence) {
  for (const auto& spec : classes) classifier_.AddClass(spec);
  class_counts_.assign(classifier_.classes(), 0);
}

void TrafficClassStage::Process(net::PacketBatch& batch) {
  const std::size_t n = batch.size();
  // Gather the routed packets' metadata into one contiguous block. The
  // flow_hash lane computed by the parse stage is carried through — the
  // tracker hashes those keys into table buckets in one SIMD sweep.
  eligible_.clear();
  metas_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (batch.verdicts[i] != net::Verdict::kForwarded) continue;
    eligible_.push_back(i);
    net::PacketMeta meta;
    meta.arrival_time_s = batch.arrival_s[i];
    meta.size_bytes = static_cast<std::uint32_t>(batch.packet(i).size());
    meta.flow_hash = batch.flow_hash[i];
    meta.priority = batch.priority[i];
    metas_.push_back(meta);
  }
  const std::size_t m = eligible_.size();
  if (m == 0) return;
  // Flow updates happen in packet order, so two packets of one flow in
  // the same batch see each other's features exactly as sequential
  // processing would; the classifier then quantises every feature vector
  // into one flat query block and searches the pCAM array once.
  features_.resize(m);
  tracker_.ObserveBatch(metas_.data(), m, features_.data());
  classifier_.ClassifyBatchInto(features_.data(), m, min_confidence_,
                                outcomes_);
  energy::CategoryTotal& meter = stage_meter();
  for (std::size_t j = 0; j < m; ++j) {
    const std::size_t i = eligible_[j];
    const cognitive::ClassifyOutcome& out = outcomes_[j];
    batch.analog_commits.push_back(
        {static_cast<std::uint32_t>(i), out.energy_j});
    meter.energy_j += out.energy_j;
    ++meter.operations;
    if (out.class_index >= 0) {
      batch.traffic_class[i] = static_cast<std::uint32_t>(out.class_index);
      ++class_counts_[static_cast<std::size_t>(out.class_index)];
      // Telemetry only: the winning class's match confidence.
      batch.pcam_degrees.Fold(out.confidence);
    } else {
      ++unclassified_;
    }
  }
}

// -------------------------------------------------- TrafficManagerStage

TrafficManagerStage::TrafficManagerStage(
    const SwitchConfig* config, const energy::DataMovementModel* movement,
    SwitchStats* stats, energy::EnergyLedger* ledger)
    : MatchActionStage("traffic-manager"),
      config_(config),
      movement_(movement),
      stats_(stats),
      ledger_(ledger),
      compute_meter_(ledger->Meter(energy::category::kDigitalCompute)),
      movement_meter_(ledger->Meter(energy::category::kDataMovement)),
      tcam_meter_(ledger->Meter(energy::category::kTcamSearch)),
      pcam_meter_(ledger->Meter(energy::category::kPcamSearch)) {
  if (!config_->wrr_weights.empty()) {
    CompileWrrSchedule(config_->wrr_weights);
  }
  ports_.reserve(config_->port_count);
  for (std::size_t p = 0; p < config_->port_count; ++p) {
    EgressPort port;
    port.wrr_pos = wrr_initial_pos_;
    for (std::size_t sc = 0; sc < config_->service_classes; ++sc) {
      aqm::AqmPolicy* guard = &tail_drop_;
      if (config_->enable_aqm) {
        aqm::AnalogAqmConfig aqm_config = config_->aqm;
        aqm_config.hardware.seed += 0xa9 * (p + 1) + 0x1d * (sc + 1);
        port.aqms.push_back(std::make_unique<aqm::AnalogAqm>(aqm_config));
        guard = port.aqms.back().get();
      }
      port.queues.emplace_back(config_->egress_queue, *guard);
    }
    ports_.push_back(std::move(port));
  }
}

void TrafficManagerStage::Process(net::PacketBatch& batch) {
  const std::size_t n = batch.size();
  // Stats, canonical ledger energy, packet ids and AQM admission all
  // mutate shared state, so this loop replays them in packet order with
  // exactly the floating-point accumulation sequence of a sequential
  // one-packet pipeline; the meter pointers (resolved at construction)
  // keep the string-keyed map lookups off the per-batch path.
  energy::CategoryTotal& compute = *compute_meter_;
  energy::CategoryTotal& movement = *movement_meter_;
  energy::CategoryTotal& tcam = *tcam_meter_;
  energy::CategoryTotal& pcam = *pcam_meter_;
  // Deferred analog energy replays per packet. Each upstream stage
  // appended its commits in ascending packet order; a counting-sort
  // scatter groups them by packet index in one pass over the buffer.
  // Scattering in append order is stable — equal packet indices keep
  // append order, the per-packet stage order of a sequential pipeline —
  // and both scratch buffers reuse their capacity across batches, so
  // the merge neither compares nor allocates in steady state.
  const auto& src = batch.analog_commits;
  commits_.resize(src.size());
  if (!src.empty()) {
    commit_starts_.assign(n, 0);
    for (const auto& c : src) ++commit_starts_[c.packet];
    std::size_t running = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t count = commit_starts_[i];
      commit_starts_[i] = running;
      running += count;
    }
    for (const auto& c : src) commits_[commit_starts_[c.packet]++] = c;
  }
  std::size_t commit_next = 0;
  for (std::size_t i = 0; i < n; ++i) {
    ++stats_->injected;
    // Header extraction: digital compute plus storage<->compute
    // shuttling, spent on every packet.
    const auto header_bits = static_cast<std::uint64_t>(
        8 * std::min<std::size_t>(batch.packet(i).size(), 42));
    const energy::MovementBreakdown& cost =
        header_cost_.Of(*movement_, header_bits);
    compute.energy_j += cost.compute_j;
    ++compute.operations;
    movement.energy_j += cost.movement_j;
    ++movement.operations;
    while (commit_next < commits_.size() && commits_[commit_next].packet == i) {
      pcam.energy_j += commits_[commit_next].energy_j;
      ++pcam.operations;
      ++commit_next;
    }
    const net::Verdict v = batch.verdicts[i];
    if (v == net::Verdict::kParseError) {
      ++stats_->parse_errors;
      continue;
    }
    if (batch.searched_firewall[i] != 0) {
      // Charged from the batch lane (the snapshot the firewall stage
      // actually searched), not the live table — the controller may be
      // mutating the table concurrently in shared-table mode.
      tcam.energy_j += batch.firewall_search_j;
      ++tcam.operations;
    }
    if (v == net::Verdict::kFirewallDeny) {
      ++stats_->firewall_denies;
      continue;
    }
    if (batch.searched_route[i] != 0) {
      tcam.energy_j += batch.route_search_j;
      ++tcam.operations;
    }
    if (v == net::Verdict::kNoRoute ||
        batch.route_port[i] == net::PacketBatch::kNoPort) {
      batch.verdicts[i] = net::Verdict::kNoRoute;
      ++stats_->no_route;
      continue;
    }
    // Custom stages may settle admission verdicts ahead of the manager.
    if (v == net::Verdict::kAqmDrop) {
      ++stats_->aqm_drops;
      continue;
    }
    if (v == net::Verdict::kQueueFull) {
      ++stats_->queue_full;
      continue;
    }
    net::PacketMeta meta;
    meta.id = next_packet_id_++;
    meta.arrival_time_s = batch.arrival_s[i];
    meta.size_bytes = static_cast<std::uint32_t>(batch.packet(i).size());
    meta.flow_hash = batch.flow_hash[i];
    meta.priority = batch.priority[i];
    meta.ecn_capable = batch.ect[i] != 0;
    const std::size_t service_class = ClassOf(meta.priority);
    batch.service_class[i] = static_cast<std::uint32_t>(service_class);
    batch.verdicts[i] =
        AdmitAndEnqueue(batch.route_port[i], service_class, meta,
                        batch.now_s(), pcam, batch.pcam_degrees);
  }
}

Verdict TrafficManagerStage::AdmitAndEnqueue(
    std::size_t port_index, std::size_t service_class,
    const net::PacketMeta& meta, double now_s, energy::CategoryTotal& pcam,
    net::PacketBatch::DegreeSummary& degrees) {
  EgressPort& port = ports_[port_index];
  // --- Cognitive traffic manager: the AQM-guarded egress queue. --------
  aqm::AnalogAqm* class_aqm =
      port.aqms.empty() ? nullptr : port.aqms[service_class].get();
  const double before_j =
      class_aqm != nullptr ? class_aqm->ConsumedEnergyJ() : 0.0;
  const aqm::Admission admission =
      port.queues[service_class].Offer(meta, now_s);
  if (class_aqm != nullptr) {
    const double delta_j = class_aqm->ConsumedEnergyJ() - before_j;
    pcam.energy_j += delta_j;
    ++pcam.operations;
    stage_meter().energy_j += delta_j;
    ++stage_meter().operations;
    // Telemetry only: the admission decision's drop probability.
    degrees.Fold(class_aqm->LastDropProbability());
  }
  switch (admission) {
    case aqm::Admission::kMarked:
      ++stats_->marked;
      [[fallthrough]];
    case aqm::Admission::kEnqueued:
      ++stats_->forwarded;
      return Verdict::kForwarded;
    case aqm::Admission::kAqmDropped:
      ++stats_->aqm_drops;
      return Verdict::kAqmDrop;
    case aqm::Admission::kTailDropped:
      break;
  }
  ++stats_->queue_full;
  return Verdict::kQueueFull;
}

void TrafficManagerStage::CompileWrrSchedule(
    const std::vector<std::uint32_t>& weights) {
  wrr_schedule_.clear();
  wrr_block_start_.assign(weights.size(), 0);
  for (std::size_t c = 0; c < weights.size(); ++c) {
    wrr_block_start_[c] = wrr_schedule_.size();
    for (std::uint32_t k = 0; k < weights[c]; ++k) {
      wrr_schedule_.push_back(static_cast<std::uint32_t>(c));
    }
  }
  // The legacy credit rotation started at (class 0, credit 0): its first
  // step always rotated to class 1 % classes with a fresh budget, so the
  // compiled cursor starts at that block.
  wrr_initial_pos_ = wrr_block_start_[1 % weights.size()];
}

void TrafficManagerStage::SetWrrWeights(
    const std::vector<std::uint32_t>& weights) {
  if (weights.size() != config_->service_classes) {
    throw std::invalid_argument(
        "SetWrrWeights: weight count must equal service_classes");
  }
  for (std::uint32_t w : weights) {
    if (w == 0) {
      throw std::invalid_argument("SetWrrWeights: zero WRR weight");
    }
  }
  CompileWrrSchedule(weights);
  for (EgressPort& port : ports_) port.wrr_pos = wrr_initial_pos_;
}

std::size_t TrafficManagerStage::PickClass(EgressPort& port, double start_s) {
  auto eligible = [&](std::size_t sc) {
    const net::PacketMeta* head = port.queues[sc].queue().Peek();
    return head != nullptr && head->arrival_time_s <= start_s;
  };
  if (config_->scheduler == SchedulerPolicy::kStrictPriority) {
    for (std::size_t sc = 0; sc < port.queues.size(); ++sc) {
      if (eligible(sc)) return sc;
    }
    return 0;  // unreachable given the caller's emptiness check
  }
  // Weighted round robin over the compiled schedule: consuming an
  // eligible slot is O(1); a class found ineligible forfeits the rest of
  // its block for this round (exactly the legacy credit semantics), so
  // the cursor jumps to the next block start — at most classes + 1 hops
  // even when every queue but one has gone idle.
  const std::size_t classes = port.queues.size();
  for (std::size_t hops = 0; hops <= classes; ++hops) {
    const std::size_t sc = wrr_schedule_[port.wrr_pos];
    if (eligible(sc)) {
      port.wrr_pos = (port.wrr_pos + 1) % wrr_schedule_.size();
      return sc;
    }
    port.wrr_pos = wrr_block_start_[(sc + 1) % classes];
  }
  return 0;  // unreachable: some class is eligible by precondition
}

std::size_t TrafficManagerStage::ClassOf(std::uint8_t priority) const {
  const std::size_t classes = config_->service_classes;
  if (classes == 1) return 0;
  // Proportional DSCP mapping: invert the 3-bit priority (0..7) so high
  // priority lands in low class index, then scale onto the class count.
  // Every class is reachable for classes <= 8, and classes == 2 keeps
  // the historical split (priority >= 4 -> class 0).
  const std::size_t inv = 7 - std::min<std::size_t>(priority, 7);
  return std::min(classes - 1, inv * classes / 8);
}

std::size_t TrafficManagerStage::DrainInto(double until_s,
                                           std::vector<Delivery>& out) {
  const std::size_t first = out.size();
  // Reserve for the worst case (every queued packet departs by until_s)
  // so the append loop below never reallocates mid-drain.
  std::size_t queued = 0;
  for (const EgressPort& port : ports_) {
    for (const aqm::AqmQueue& q : port.queues) queued += q.queue().packets();
  }
  if (queued == 0) return 0;  // fast path: nothing queued anywhere
  out.reserve(first + queued);
  for (std::size_t p = 0; p < ports_.size(); ++p) {
    EgressPort& port = ports_[p];
    for (;;) {
      // Strict-priority scheduling: the lowest class index whose head is
      // already waiting at the link's next-free instant wins; if none is
      // waiting yet, the earliest-arriving head starts the next busy
      // period.
      bool any = false;
      double earliest_arrival = 0.0;
      for (const aqm::AqmQueue& q : port.queues) {
        const net::PacketMeta* head = q.queue().Peek();
        if (head == nullptr) continue;
        if (!any || head->arrival_time_s < earliest_arrival) {
          earliest_arrival = head->arrival_time_s;
        }
        any = true;
      }
      if (!any) break;  // all queues empty
      // The next service slot starts when the link frees up or the first
      // packet arrives; among heads already waiting then, the lowest
      // class index (highest priority) is served.
      const double start_s = std::max(port.next_free_s, earliest_arrival);
      const std::size_t pick = PickClass(port, start_s);
      const net::PacketMeta* head = port.queues[pick].queue().Peek();
      const double ready_s = std::max(port.next_free_s, head->arrival_time_s);
      const double service_s = static_cast<double>(head->size_bytes) * 8.0 /
                               config_->port_rate_bps;
      const double depart_s = ready_s + service_s;
      if (depart_s > until_s) break;
      // A head the policy drops here counts as an AQM drop, and the next
      // packet of the class takes its service slot, as in the
      // simulators' Bottleneck::Depart. (No switch port head-drops
      // today: AnalogAqm and TailDropOnly decide at admission only.)
      const auto dequeued = port.queues[pick].Dequeue(
          depart_s, [&](const net::PacketMeta&) { ++stats_->aqm_drops; });
      port.next_free_s = depart_s;
      if (!dequeued.has_value()) continue;
      Delivery d;
      d.port = p;
      d.service_class = pick;
      d.meta = dequeued->meta;
      d.departure_s = depart_s;
      d.sojourn_s = dequeued->sojourn_s;
      out.push_back(d);
      ++stats_->delivered;
    }
  }
  // Sort only what this call appended; earlier contents are untouched.
  std::sort(out.begin() + static_cast<std::ptrdiff_t>(first), out.end(),
            [](const Delivery& a, const Delivery& b) {
              return a.departure_s < b.departure_s;
            });
  return out.size() - first;
}

const net::PacketQueue& TrafficManagerStage::egress_queue(
    std::size_t port, std::size_t service_class) const {
  return ports_.at(port).queues.at(service_class).queue();
}

aqm::AnalogAqm* TrafficManagerStage::port_aqm(std::size_t port,
                                              std::size_t service_class) {
  EgressPort& p = ports_.at(port);
  if (p.aqms.empty()) return nullptr;
  return p.aqms.at(service_class).get();
}

std::uint64_t TrafficManagerStage::QueuedPackets() const {
  std::uint64_t queued = 0;
  for (const EgressPort& port : ports_) {
    for (const aqm::AqmQueue& q : port.queues) queued += q.queue().packets();
  }
  return queued;
}

}  // namespace analognf::arch
