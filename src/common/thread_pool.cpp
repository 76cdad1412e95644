#include "analognf/common/thread_pool.hpp"

namespace analognf {

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
  const std::size_t index =
      external_slots_.fetch_add(1, std::memory_order_relaxed);
  current_slot_ = Shared().size() + 1 + index;
  return current_slot_;
}

std::size_t ThreadPool::SlotUpperBound() {
  return Shared().size() + 1 +
         external_slots_.load(std::memory_order_relaxed);
}

ThreadPool& ThreadPool::Shared() {
  static ThreadPool pool([] {
    const unsigned cores = std::thread::hardware_concurrency();
    return cores > 1 ? static_cast<std::size_t>(cores - 1) : std::size_t{0};
  }());
  return pool;
}

}  // namespace analognf
