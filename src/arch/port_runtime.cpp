#include "analognf/arch/port_runtime.hpp"

#include <chrono>
#include <future>
#include <stdexcept>
#include <utility>

#include "analognf/arch/controller.hpp"

namespace {

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
    stop_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
  worker_.join();
}

void PortRuntime::Submit(Batch batch) {
  if (attached_.load(std::memory_order_acquire)) {
    throw std::logic_error("PortRuntime::Submit: a ring is attached");
  }
  while (!own_ring_.TryPush(batch)) std::this_thread::yield();
  // Counted after the push: a command ticketed with this count never
  // waits for a batch that is not in the ring yet.
  submitted_.fetch_add(1, std::memory_order_release);
}

void PortRuntime::Apply(Command command) {
  if (!command) {
    throw std::invalid_argument("PortRuntime::Apply: empty command");
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Read under the lock, so tickets never decrease along the queue.
    const std::uint64_t ticket = submitted_.load(std::memory_order_acquire);
    commands_.push_back({ticket, std::move(command)});
    next_ticket_.store(commands_.front().ticket, std::memory_order_release);
  }
  cv_.notify_one();
}

void PortRuntime::WaitIdle() {
  std::promise<void> ran;
  std::future<void> done = ran.get_future();
  Apply([&ran](CognitiveSwitch&) { ran.set_value(); });
  done.wait();
}

void PortRuntime::AttachRing(IngressRing* ring, RingHook hook) {
  if (ring == nullptr) {
    throw std::invalid_argument("PortRuntime::AttachRing: null ring");
  }
  attached_.store(true, std::memory_order_release);
  Apply([this, ring, hook = std::move(hook)](CognitiveSwitch&) mutable {
    ring_ = ring;
    hook_ = std::move(hook);
  });
}

void PortRuntime::DetachRing() {
  Apply([this](CognitiveSwitch&) {
    ring_ = &own_ring_;
    hook_ = nullptr;
  });
  // The detach runs on the worker between batches, so once the fence
  // behind it returns, the worker has retired every batch it will pop.
  WaitIdle();
  attached_.store(false, std::memory_order_release);
}

void PortRuntime::RunDueCommands(std::uint64_t retired) {
  while (next_ticket_.load(std::memory_order_acquire) <= retired) {
    Command command;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      command = std::move(commands_.front().run);
      commands_.erase(commands_.begin());
      next_ticket_.store(
          commands_.empty() ? kNoCommand : commands_.front().ticket,
          std::memory_order_relaxed);
    }
    command(switch_);  // unlocked: a command may itself Apply
  }
}

void PortRuntime::WorkerLoop() {
  // The last batch, kept across iterations so TryPop exchanges it back
  // into the ring: whoever pushed its buffers frees them, not this thread.
  Batch batch;
  std::uint64_t retired = 0;  // own-ring batches fully executed
  std::size_t idle_spins = 0;
  for (;;) {
    // Read before the pop: once the destructor's stop is seen, an empty
    // ring means every batch has been popped and every command has run.
    const bool stopping = stop_.load(std::memory_order_acquire);
    IngressRing* const polled = ring_;
    RunDueCommands(retired);
    // A ring op landed: hold none of the previous ring's buffers.
    if (ring_ != polled) batch = Batch{};
    if (ring_->TryPop(batch)) {
      const bool own = ring_ == &own_ring_;
      // A command Applied before this batch was submitted became
      // visible with the pop; it still runs ahead of the batch.
      if (own) RunDueCommands(retired);
      const std::uint64_t start_ns = hook_ ? SteadyNowNs() : 0;
      switch_.RunBatch(batch.packets, batch.now_s);
      if (own) ++retired;
      if (hook_) {
        RingBatchInfo info;
        info.packets = batch.packets.size();
        info.enqueue_ns = batch.enqueue_ns;
        info.start_ns = start_ns;
        info.done_ns = SteadyNowNs();
        hook_(info);
      }
      idle_spins = 0;
      continue;
    }
    if (stopping) return;
    // Ring momentarily empty: spin briefly (the producer is usually just
    // behind), then back off to a timed wait so an idle port does not
    // burn a core. Producers never signal; the timeout is the re-poll
    // tick, and Apply and the destructor cut it short.
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait_for(lock, std::chrono::microseconds(200), [this, retired] {
      return stop_.load(std::memory_order_relaxed) ||
             next_ticket_.load(std::memory_order_relaxed) <= retired;
    });
  }
}

// ------------------------------------------------------------ SwitchGroup

SwitchGroup::SwitchGroup(std::size_t ports, SwitchConfig config)
    : tables_(config.digital_technology, config.port_count) {
  if (ports == 0) {
    throw std::invalid_argument("SwitchGroup: zero ports");
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
    total.marked += s.marked;
    total.parse_errors += s.parse_errors;
    total.firewall_denies += s.firewall_denies;
    total.no_route += s.no_route;
    total.aqm_drops += s.aqm_drops;
    total.queue_full += s.queue_full;
    total.delivered += s.delivered;
  }
  return total;
}

}  // namespace analognf::arch
