// Fixed-size thread pool with a shared task queue, plus fork-join loops
// over it.
//
// The engine fans grid points, the simulation replicator replicas and the
// simulated optimizer candidate periods and P rungs out over this pool.
// submit() queues one std::function<void()> and returns a std::future so
// callers can propagate results and exceptions. The parallel_for family
// is fork-join instead (Cilk's pattern): the calling thread works through
// the call's chunks alongside at most size() - 1 queued helper entries,
// all claiming chunks from one atomic cursor, with no future per chunk.
// Idle workers sleep on the queue's condition variable. Determinism of
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
  friend void parallel_for_chunks(
      ThreadPool& pool, std::size_t n,
      const std::function<void(std::size_t, std::size_t)>& fn,
      std::size_t min_chunk);

  /// Queues `copies` copies of `task` under one lock and wakes one
  /// worker; each worker that pops one wakes the next (worker_loop).
  void post(const std::function<void()>& task, std::size_t copies);

  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

/// Runs fn(i) for i in [0, n) across the pool; blocks until all complete.
/// Indices are processed in contiguous chunks, and every chunk runs even
/// when some throw; the exception of the lowest failing chunk is
/// re-thrown once every chunk has returned. Nesting is safe: called from
/// one of the same pool's workers, or from a chunk whose caller runs it,
/// it runs every index inline on that thread instead of queueing.
void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn);

/// Chunk-level variant: runs fn(begin, end) once per contiguous chunk of
/// [0, n), so callers can hoist per-worker state (scratch arenas,
/// reusable simulators) out of the per-index loop. Chunks hold about
/// `min_chunk` indices or more (at most 4 * pool.size() chunks), so
/// callers whose indices cost less than a dispatch can size them; when
/// that leaves one chunk, it runs inline on the caller.
///
/// A call that splits is one fork-join job. It queues
/// min(chunks, pool.size()) - 1 helper entries and the caller claims
/// chunks from the same atomic cursor as the helpers, in ascending
/// order, so at most pool.size() threads run one call's chunks and a
/// one-worker pool's call runs entirely on the caller. Once the cursor
/// passes the last chunk, the caller waits only for chunks helpers have
/// already claimed: it spins briefly, then blocks. A helper popped after
/// the call has returned finds no chunk and exits. Exceptions and
/// nesting are as in parallel_for (a nested call is one chunk, fn(0, n),
/// on the nesting thread).
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
