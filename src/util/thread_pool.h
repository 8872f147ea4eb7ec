// Persistent worker pool for deterministic block-parallel loops.
//
// The sharded round engine runs each phase of a round as a loop over
// disjoint vertex blocks.  Blocks are claimed dynamically (atomic counter),
// so the *assignment* of blocks to threads is racy -- determinism comes from
// the blocks writing disjoint state, never from execution order.  Workers
// are spawned lazily on the first parallel loop and persist across rounds;
// a Monte Carlo run pays thread creation once, not once per round.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace dg::util {

class ThreadPool {
 public:
  /// `threads` counts the caller: a pool of k runs loops on the calling
  /// thread plus k-1 lazily created workers.  threads <= 1 never spawns.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t threads() const noexcept { return threads_; }

  /// Wall-clock nanoseconds spent inside parallel for_blocks() loops since
  /// the last call, which resets the total.  Whoever drives the pool reads
  /// it, so loops started by any caller are counted.
  std::uint64_t take_busy_ns() noexcept {
    const std::uint64_t ns = busy_ns_;
    busy_ns_ = 0;
    return ns;
  }

  /// Runs fn(block) for every block in [0, blocks) across the caller and
  /// the workers, returning only after every block completed.  fn must
  /// confine its writes to per-block state; any shared reads must be
  /// immutable for the duration of the loop.  Not reentrant.
  template <typename Fn>
  void for_blocks(std::size_t blocks, Fn&& fn) {
    if (blocks <= 1 || threads_ <= 1) {
      for (std::size_t b = 0; b < blocks; ++b) fn(b);
      return;
    }
    run_blocks(
        blocks,
        [](void* obj, std::size_t block) {
          (*static_cast<std::remove_reference_t<Fn>*>(obj))(block);
        },
        &fn);
  }

 private:
  using BlockFn = void (*)(void* obj, std::size_t block);

  void run_blocks(std::size_t blocks, BlockFn fn, void* obj);
  void drain();
  void worker_loop();
  void ensure_workers();

  std::size_t threads_;
  std::vector<std::thread> workers_;
  std::uint64_t busy_ns_ = 0;  ///< run_blocks() wall clock; caller-only

  std::mutex mutex_;
  std::condition_variable work_cv_;  ///< wakes workers on a new generation
  std::condition_variable done_cv_;  ///< job finished / worker parked
  std::uint64_t generation_ = 0;     ///< bumped per job, under mutex_
  std::size_t idle_ = 0;             ///< workers parked in wait, under mutex_
  bool stop_ = false;

  // Current job; written under mutex_ while every worker is parked, read by
  // workers after they observe the new generation under the same mutex.
  BlockFn fn_ = nullptr;
  void* obj_ = nullptr;
  std::size_t blocks_ = 0;
  std::atomic<std::size_t> next_{0};       ///< next unclaimed block
  std::atomic<std::size_t> remaining_{0};  ///< blocks not yet completed
};

}  // namespace dg::util
