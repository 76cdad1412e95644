#include "analognf/common/thread_pool.hpp"

#include <limits>

namespace analognf {

namespace {

// Offsets of the registered threads' slots above the shared pool's.
// Released offsets are reused, so `high` is the most registered threads
// ever alive at once, not the number ever started.
struct ExternalSlots {
  std::mutex mutex;
  std::vector<std::size_t> free;
  std::size_t high = 0;
};

ExternalSlots& External() {
  static ExternalSlots slots;
  return slots;
}

// Returns the registering thread's offset when the thread exits.
struct SlotRelease {
  std::size_t offset = std::numeric_limits<std::size_t>::max();
  ~SlotRelease() {
    if (offset == std::numeric_limits<std::size_t>::max()) return;
    ExternalSlots& slots = External();
    std::lock_guard<std::mutex> lock(slots.mutex);
    slots.free.push_back(offset);
  }
};

}  // namespace

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this, i] {
      current_slot_ = i + 1;
      WorkerLoop();
    });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ParallelFor(std::size_t tasks,
                             const std::function<void(std::size_t)>& fn) {
  if (tasks == 0) return;
  if (workers_.empty() || tasks == 1) {
    for (std::size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> submit_lock(submit_mutex_);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_ = &fn;
    total_ = tasks;
    next_.store(0, std::memory_order_relaxed);
    done_ = 0;
  }
  cv_work_.notify_all();
  RunTasks();  // the caller works too
  std::unique_lock<std::mutex> lock(mutex_);
  // Also wait for every worker to leave RunTasks: a lagging one would
  // otherwise read the next round's job_/total_ unlocked and could claim
  // one of its tasks.
  cv_done_.wait(lock, [this] { return done_ == total_ && active_ == 0; });
  job_ = nullptr;
}

void ThreadPool::RunTasks() {
  while (true) {
    const std::size_t i = next_.fetch_add(1, std::memory_order_relaxed);
    if (i >= total_) return;
    (*job_)(i);
    std::lock_guard<std::mutex> lock(mutex_);
    if (++done_ == total_) cv_done_.notify_all();
  }
}

void ThreadPool::WorkerLoop() {
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_work_.wait(lock, [this] {
        return stop_ || (job_ != nullptr &&
                         next_.load(std::memory_order_relaxed) < total_);
      });
      if (stop_) return;
      ++active_;
    }
    RunTasks();
    std::lock_guard<std::mutex> lock(mutex_);
    if (--active_ == 0) cv_done_.notify_all();
  }
}

std::size_t ThreadPool::RegisterExternalSlot() {
  if (current_slot_ != 0) return current_slot_;  // worker or already done
  thread_local SlotRelease release;
  ExternalSlots& slots = External();
  {
    std::lock_guard<std::mutex> lock(slots.mutex);
    if (slots.free.empty()) {
      release.offset = slots.high++;
    } else {
      release.offset = slots.free.back();
      slots.free.pop_back();
    }
  }
  current_slot_ = Shared().size() + 1 + release.offset;
  return current_slot_;
}

std::size_t ThreadPool::SlotUpperBound() {
  ExternalSlots& slots = External();
  std::lock_guard<std::mutex> lock(slots.mutex);
  return Shared().size() + 1 + slots.high;
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool([] {
    const unsigned cores = std::thread::hardware_concurrency();
    return cores > 1 ? static_cast<std::size_t>(cores - 1) : std::size_t{0};
  }());
  return pool;
}

}  // namespace analognf
