// A small reusable worker pool for data-parallel loops.
//
// The pCAM search engine shards row evaluation across cores for large
// tables (pcam_search_engine.hpp); simulations and benches may reuse the
// same pool. The pool is deliberately minimal: one blocking ParallelFor
// at a time, no futures, no task graph. The calling thread participates
// in the loop, so a pool with zero workers degrades to a plain `for` —
// which is also the single-core fallback.
#pragma once

#include <atomic>
#include <cstddef>
#include <functional>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace analognf {

class ThreadPool {
 public:
  // Spawns `workers` background threads (0 is valid: all work then runs
  // inline on the calling thread).
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // Runs fn(0) .. fn(tasks - 1), concurrently across the workers and the
  // calling thread, and blocks until all calls have returned. Tasks must
  // not submit further work to the same pool. Concurrent ParallelFor
  // calls from different threads are serialized.
  void ParallelFor(std::size_t tasks,
                   const std::function<void(std::size_t)>& fn);

  // Process-wide pool sized to the machine (hardware_concurrency - 1
  // workers, so loops use every core including the caller's).
  static ThreadPool& Shared();

  // Stable slot index of the calling thread: 0 for any unregistered
  // thread that is not a pool worker (including the ParallelFor caller),
  // 1 + i for a pool's worker i, and a slot above the shared pool's
  // workers for threads that called RegisterExternalSlot.
  // Telemetry uses this to pick a contention-free counter cell; workers
  // of distinct pools share slot numbers, which only costs them a shared
  // cell, never correctness.
  static std::size_t CurrentSlot() { return current_slot_; }

  // Assigns the calling thread a slot that no shared-pool worker and no
  // other live registered thread uses, so its sharded telemetry writes
  // never contend (or merge) with another thread's. Long-lived non-pool
  // threads that write metrics on the hot path (e.g. per-port runtime
  // workers) must call this once at startup; without it every external
  // thread lands on slot 0 and two such writers silently share one
  // counter cell. Idempotent: repeat calls keep the first assignment.
  // The slot is released when the thread exits and may then go to a
  // later thread; the release happens before that reuse, so the later
  // thread's writes to a shared cell add to the earlier ones exactly.
  // Returns the slot.
  static std::size_t RegisterExternalSlot();

  // Upper bound (exclusive) on slot indices handed out so far: shared
  // pool workers + slot 0 + the most registered threads alive at once.
  // Sizing a sharded counter to at least this (rounded up to a power of
  // two) guarantees registered threads never alias.
  static std::size_t SlotUpperBound();

 private:
  void WorkerLoop();
  void RunTasks();

  inline static thread_local std::size_t current_slot_ = 0;

  std::vector<std::thread> workers_;
  std::mutex submit_mutex_;  // one job at a time
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  const std::function<void(std::size_t)>* job_ = nullptr;
  std::size_t total_ = 0;
  std::atomic<std::size_t> next_{0};
  std::size_t done_ = 0;
  std::size_t active_ = 0;  // workers inside RunTasks
  bool stop_ = false;
};

}  // namespace analognf
