#include "analognf/arch/port_runtime.hpp"

#include <chrono>
#include <stdexcept>
#include <utility>

#include "analognf/arch/controller.hpp"
#include "analognf/common/thread_pool.hpp"

namespace {

// Queued mailbox items per port; Submit/Apply block while it is full.
constexpr std::size_t kMailboxCapacity = 8;

std::uint64_t SteadyNowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

namespace analognf::arch {

// ------------------------------------------------------------ PortRuntime

PortRuntime::PortRuntime(SwitchConfig config, const SharedTables* tables)
    : switch_(std::move(config), tables), worker_([this] { WorkerLoop(); }) {}

PortRuntime::~PortRuntime() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_submit_.notify_all();
  worker_.join();
}

void PortRuntime::Submit(Batch batch) {
  Item item;
  item.batch = std::move(batch);
  std::unique_lock<std::mutex> lock(mutex_);
  cv_state_.wait(lock, [this] { return mailbox_.size() < kMailboxCapacity; });
  mailbox_.push_back(std::move(item));
  ++in_flight_;
  lock.unlock();
  cv_submit_.notify_one();
}

void PortRuntime::Apply(Command command) {
  if (!command) {
    throw std::invalid_argument("PortRuntime::Apply: empty command");
  }
  Item item;
  item.command = std::move(command);
  std::unique_lock<std::mutex> lock(mutex_);
  cv_state_.wait(lock, [this] { return mailbox_.size() < kMailboxCapacity; });
  mailbox_.push_back(std::move(item));
  ++in_flight_;
  lock.unlock();
  cv_submit_.notify_one();
}

void PortRuntime::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_state_.wait(lock, [this] { return in_flight_ == 0; });
}

void PortRuntime::AttachRing(IngressRing* ring, RingHook hook) {
  if (ring == nullptr) {
    throw std::invalid_argument("PortRuntime::AttachRing: null ring");
  }
  Item item;
  item.ring_op = true;
  item.ring = ring;
  item.hook = std::move(hook);
  std::unique_lock<std::mutex> lock(mutex_);
  cv_state_.wait(lock, [this] { return mailbox_.size() < kMailboxCapacity; });
  mailbox_.push_back(std::move(item));
  ++in_flight_;
  lock.unlock();
  cv_submit_.notify_one();
}

void PortRuntime::DetachRing() {
  Item item;
  item.ring_op = true;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_state_.wait(lock, [this] { return mailbox_.size() < kMailboxCapacity; });
    mailbox_.push_back(std::move(item));
    ++in_flight_;
  }
  cv_submit_.notify_one();
  // The detach lands behind any in-flight ring batch (the worker is
  // sequential), so idle here implies the worker is done with the ring.
  WaitIdle();
}

void PortRuntime::WorkerLoop() {
  // A process-unique slot keeps this thread's sharded telemetry writes
  // off every other thread's counter cells (exactness, not just
  // contention avoidance).
  slot_.store(ThreadPool::RegisterExternalSlot(), std::memory_order_release);
  // Ring state is worker-local: it only changes by processing a ring_op
  // mailbox item on this thread, so polling it costs no synchronisation.
  IngressRing* ring = nullptr;
  RingHook ring_hook;
  // The last ring batch, kept across iterations so TryPop exchanges it
  // back into the ring: the producer frees its buffers, not this thread.
  Batch batch;
  std::size_t idle_spins = 0;
  for (;;) {
    Item item;
    bool have_item = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (ring == nullptr) {
        cv_submit_.wait(lock, [this] { return stop_ || !mailbox_.empty(); });
      }
      if (!mailbox_.empty()) {
        item = std::move(mailbox_.front());
        mailbox_.pop_front();
        have_item = true;
      } else if (stop_) {
        // Stop drains the mailbox but not an attached ring: whoever
        // attached it is responsible for DetachRing() before teardown.
        return;
      }
    }
    if (have_item) {
      cv_state_.notify_all();  // a mailbox slot freed up
      if (item.ring_op) {
        ring = item.ring;
        ring_hook = std::move(item.hook);
        batch = Batch{};  // hold none of the previous ring's buffers
      } else if (item.command) {
        item.command(switch_);
      } else {
        switch_.InjectBatch(item.batch.packets, item.batch.now_s);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --in_flight_;
      }
      cv_state_.notify_all();
      idle_spins = 0;
      continue;
    }
    // Mailbox empty, ring attached: run-to-completion poll. Mailbox
    // items re-checked every iteration keep command latency bounded by
    // one batch.
    if (ring->TryPop(batch)) {
      const std::uint64_t start_ns = SteadyNowNs();
      switch_.InjectBatch(batch.packets, batch.now_s);
      if (ring_hook) {
        RingBatchInfo info;
        info.packets = batch.packets.size();
        info.enqueue_ns = batch.enqueue_ns;
        info.start_ns = start_ns;
        info.done_ns = SteadyNowNs();
        ring_hook(info);
      }
      idle_spins = 0;
      continue;
    }
    // Ring momentarily empty: spin briefly (producer is usually just
    // behind), then back off to a timed wait so an idle ring does not
    // burn a core. Producers never signal the condvar — the timeout is
    // the re-poll tick.
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_submit_.wait_for(lock, std::chrono::microseconds(200),
                        [this] { return stop_ || !mailbox_.empty(); });
  }
}

// ------------------------------------------------------------ SwitchGroup

SwitchGroup::SwitchGroup(std::size_t ports, SwitchConfig config)
    : tables_(config.digital_technology, config.port_count) {
  if (ports == 0) {
    throw std::invalid_argument("SwitchGroup: zero ports");
  }
  // Widen the default telemetry shard count so every worker's external
  // slot (registered after construction) still gets its own cell. An
  // explicit shard count is left alone.
  if (config.telemetry.shards == 0) {
    config.telemetry.shards = ThreadPool::SlotUpperBound() + ports;
  }
  runtimes_.reserve(ports);
  for (std::size_t p = 0; p < ports; ++p) {
    runtimes_.push_back(std::make_unique<PortRuntime>(config, &tables_));
  }
}

std::size_t SwitchGroup::AddRoute(std::uint32_t dst_ip, int prefix_len,
                                  std::size_t port) {
  return tables_.AddRoute(dst_ip, prefix_len, port);
}

void SwitchGroup::WithdrawRoute(std::size_t route_index) {
  tables_.WithdrawRoute(route_index);
}

std::size_t SwitchGroup::AddFirewallRule(const FirewallPattern& pattern,
                                         bool permit, std::int32_t priority) {
  return tables_.AddFirewallRule(pattern, permit, priority);
}

void SwitchGroup::EraseFirewallRule(std::size_t rule_index) {
  tables_.EraseFirewallRule(rule_index);
}

void SwitchGroup::Commit() { tables_.Commit(); }

void SwitchGroup::ProgramAqmTarget(double target_delay_s,
                                   double max_deviation_s) {
  for (auto& runtime : runtimes_) {
    runtime->Apply([target_delay_s, max_deviation_s](CognitiveSwitch& sw) {
      arch::ProgramAqmTarget(sw, target_delay_s, max_deviation_s);
    });
  }
}

void SwitchGroup::Submit(std::size_t port, std::vector<net::Packet> packets,
                         double now_s) {
  PortRuntime::Batch batch;
  batch.packets = std::move(packets);
  batch.now_s = now_s;
  runtimes_.at(port)->Submit(std::move(batch));
}

void SwitchGroup::WaitIdle() {
  for (auto& runtime : runtimes_) runtime->WaitIdle();
}

SwitchStats SwitchGroup::AggregateStats() const {
  SwitchStats total;
  for (const auto& runtime : runtimes_) {
    const SwitchStats& s = runtime->device().stats();
    total.injected += s.injected;
    total.forwarded += s.forwarded;
    total.parse_errors += s.parse_errors;
    total.firewall_denies += s.firewall_denies;
    total.no_route += s.no_route;
    total.aqm_drops += s.aqm_drops;
    total.queue_full += s.queue_full;
    total.delivered += s.delivered;
  }
  return total;
}

double SwitchGroup::TotalEnergyJ() const {
  double total = 0.0;
  for (const auto& runtime : runtimes_) {
    total += runtime->device().ledger().TotalJ();
  }
  return total;
}

}  // namespace analognf::arch
