#include "util/thread_pool.h"

#include <chrono>

#include "util/assert.h"

namespace dg::util {

ThreadPool::ThreadPool(std::size_t threads) : threads_(threads) {
  DG_EXPECTS(threads >= 1);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::ensure_workers() {
  if (!workers_.empty() || threads_ <= 1) return;
  workers_.reserve(threads_ - 1);
  for (std::size_t i = 0; i + 1 < threads_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

void ThreadPool::run_blocks(std::size_t blocks, BlockFn fn, void* obj) {
  const auto start = std::chrono::steady_clock::now();
  ensure_workers();
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Wait for stragglers from the previous job to park before touching the
    // job fields: a worker still inside drain() may probe next_ once more
    // after the job completes, and must see the exhausted old counter, not a
    // half-written new job.
    done_cv_.wait(lock, [&] { return idle_ == workers_.size(); });
    fn_ = fn;
    obj_ = obj;
    blocks_ = blocks;
    next_.store(0, std::memory_order_relaxed);
    remaining_.store(blocks, std::memory_order_relaxed);
    ++generation_;
  }
  work_cv_.notify_all();
  drain();  // the caller is one of the pool's threads
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] {
      return remaining_.load(std::memory_order_acquire) == 0;
    });
  }
  busy_ns_ += static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

void ThreadPool::drain() {
  for (;;) {
    const std::size_t block = next_.fetch_add(1, std::memory_order_relaxed);
    if (block >= blocks_) return;
    fn_(obj_, block);
    if (remaining_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last block: wake whoever waits in run_blocks.  Taking the lock
      // orders the notify after the waiter's predicate check.
      std::lock_guard<std::mutex> lock(mutex_);
      done_cv_.notify_all();
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ++idle_;
      done_cv_.notify_all();  // run_blocks may be waiting for us to park
      work_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      --idle_;
      if (stop_) return;
      seen = generation_;
    }
    drain();
  }
}

}  // namespace dg::util
