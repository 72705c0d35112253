// Fixed-size thread pool with a shared task queue.
//
// The engine fans grid points, the simulation replicator replicas and the
// simulated optimizer candidate periods and P rungs out over this pool.
// Tasks are plain std::function<void()>; submit() returns a std::future
// so callers can propagate results and exceptions. Determinism of
// simulation results does not depend on the pool: each replica derives
// its RNG stream from its index, so scheduling order is irrelevant to the
// numbers produced.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <future>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace ayd::exec {

class ThreadPool {
 public:
  /// Spawns `threads` workers (defaults to hardware concurrency, min 1).
  explicit ThreadPool(unsigned threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] std::size_t size() const { return workers_.size(); }

  /// Enqueues a callable; returns a future for its result.
  template <typename Fn>
  auto submit(Fn&& fn) -> std::future<std::invoke_result_t<Fn>> {
    using R = std::invoke_result_t<Fn>;
    auto task = std::make_shared<std::packaged_task<R()>>(
        std::forward<Fn>(fn));
    std::future<R> fut = task->get_future();
    {
      const std::lock_guard lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return fut;
  }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs fn(i) for i in [0, n) across the pool; blocks until all complete.
/// The first exception thrown by any task is re-thrown (others are
/// swallowed after completion). Indices are processed in contiguous
/// per-thread chunks. Nesting is safe: called from one of the same
/// pool's workers, it runs every index inline on that worker instead of
/// queueing (blocking on submit()'s futures from a worker is not).
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Chunk-level variant: runs fn(begin, end) once per contiguous chunk of
/// [0, n), so callers can hoist per-worker state (scratch arenas,
/// reusable simulators) out of the per-index loop. Same blocking,
/// exception and nesting policy as parallel_for (a nested call is one
/// chunk, fn(0, n)). Chunks hold about `min_chunk` indices or more, so
/// callers whose indices cost less than a task dispatch can size them;
/// when that leaves one chunk, it runs inline on the caller.
void parallel_for_chunks(ThreadPool& pool, std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t min_chunk = 1);

/// Same, with an optional pool: a null `pool` runs fn(0, n) on the
/// caller (for n > 0).
void parallel_for_chunks(ThreadPool* pool, std::size_t n,
                         const std::function<void(std::size_t, std::size_t)>& fn,
                         std::size_t min_chunk = 1);

/// Runs fn(i) for every i in [0, n), one index per chunk where the pool
/// allows, dispatching the highest index first: callers that order items
/// by increasing cost start the longest ones first, which shortens the
/// makespan when items outnumber workers. Every index runs even when some
/// throw; the exception of the lowest throwing index is re-thrown, the one
/// a serial ascending loop would meet first. A null `pool` runs on the
/// caller; nesting behaves as in parallel_for.
void parallel_for_descending(ThreadPool* pool, std::size_t n,
                             const std::function<void(std::size_t)>& fn);

/// Maps fn over [0, n) and returns results in index order.
template <typename Fn>
auto parallel_map(ThreadPool& pool, std::size_t n, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn, std::size_t>> {
  using R = std::invoke_result_t<Fn, std::size_t>;
  std::vector<R> out(n);
  parallel_for(pool, n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

}  // namespace ayd::exec
