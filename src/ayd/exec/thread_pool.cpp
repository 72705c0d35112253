#include "ayd/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

namespace ayd::exec {

namespace {

/// The pool whose worker loop runs on this thread, or whose
/// parallel_for_chunks call this thread is running chunks of as its
/// caller; null otherwise. parallel_for_chunks reads it to spot nested
/// calls.
thread_local const ThreadPool* t_worker_pool = nullptr;

/// Spin-wait hint for the caller's short wait on claimed chunks.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

/// Pause rounds the caller spins on chunks still running before it
/// blocks: some tens of microseconds, the tail of a small chunk.
constexpr int kSpinRounds = 1 << 11;

/// One parallel_for_chunks call, shared by the caller and its helper
/// entries. It is reference-counted because a helper may be popped after
/// the call has returned: the helper still holds the job, finds the cursor
/// past the last chunk, and drops it without touching `fn`.
struct ForkJoin {
  const std::function<void(std::size_t, std::size_t)>* fn;
  std::size_t n;
  std::size_t chunk;
  std::size_t chunks;
  std::atomic<std::size_t> cursor{0};
  /// Chunks not yet returned; the caller waits on it reaching zero.
  std::atomic<unsigned> pending;
  std::atomic<unsigned> refs;
  std::mutex error_mu;
  std::size_t error_chunk = SIZE_MAX;
  std::exception_ptr error;

  ForkJoin(const std::function<void(std::size_t, std::size_t)>& f,
           std::size_t items, std::size_t per_chunk, std::size_t count,
           unsigned owners)
      : fn(&f),
        n(items),
        chunk(per_chunk),
        chunks(count),
        pending(static_cast<unsigned>(count)),
        refs(owners) {}

  /// Claims and runs chunks until the cursor passes the last one.
  void work() {
    for (;;) {
      const std::size_t c = cursor.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      const std::size_t begin = c * chunk;
      try {
        (*fn)(begin, std::min(begin + chunk, n));
      } catch (...) {
        const std::lock_guard lock(error_mu);
        if (c < error_chunk) {
          error_chunk = c;
          error = std::current_exception();
        }
      }
      if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        pending.notify_one();
      }
    }
  }

  void release() {
    if (refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete this;
  }
};

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads;
  if (n == 0) {
    n = std::max(1u, std::thread::hardware_concurrency());
  }
  workers_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

// A worker that pops a task while more are queued wakes the next worker
// before running it, so post() wakes one worker and the wake-ups of a
// call's helpers chain off the caller's critical path.
void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    bool more = false;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
      more = !queue_.empty();
    }
    if (more) cv_.notify_one();
    task();
  }
}

void ThreadPool::post(const std::function<void()>& task,
                      std::size_t copies) {
  {
    const std::lock_guard lock(mutex_);
    for (std::size_t i = 0; i < copies; ++i) queue_.push_back(task);
  }
  cv_.notify_one();
}

void parallel_for_chunks(
    ThreadPool& pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_chunk) {
  if (n == 0) return;
  const std::size_t target = std::clamp<std::size_t>(
      n / std::max<std::size_t>(min_chunk, 1), 1, 4 * pool.size());
  // A call from one of this pool's own workers, or from a chunk its
  // caller runs, runs inline as one chunk: the outer level already keeps
  // the pool busy. A single chunk runs inline too: a helper would only
  // add the dispatch.
  if (t_worker_pool == &pool || target == 1) {
    fn(0, n);
    return;
  }
  const std::size_t chunk = (n + target - 1) / target;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  const std::size_t helpers = std::min(chunks, pool.size()) - 1;
  auto* job = new ForkJoin(fn, n, chunk, chunks,
                           static_cast<unsigned>(helpers + 1));
  if (helpers > 0) {
    pool.post(
        [job] {
          job->work();
          job->release();
        },
        helpers);
  }
  {
    // The caller's chunks nest like a worker's.
    const ThreadPool* const outer = t_worker_pool;
    t_worker_pool = &pool;
    job->work();
    t_worker_pool = outer;
  }
  // The cursor is past the last chunk: wait only for the chunks helpers
  // already claimed, spinning for about one chunk's tail, then blocking.
  unsigned left = job->pending.load(std::memory_order_acquire);
  for (int spin = 0; left != 0 && spin < kSpinRounds; ++spin) {
    cpu_relax();
    left = job->pending.load(std::memory_order_acquire);
  }
  while (left != 0) {
    job->pending.wait(left, std::memory_order_acquire);
    left = job->pending.load(std::memory_order_acquire);
  }
  const std::exception_ptr error = std::move(job->error);
  job->release();
  if (error) std::rethrow_exception(error);
}

void parallel_for_chunks(
    ThreadPool* pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_chunk) {
  if (pool != nullptr) {
    parallel_for_chunks(*pool, n, fn, min_chunk);
  } else if (n > 0) {
    fn(0, n);
  }
}

void parallel_for_descending(ThreadPool* pool, std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  std::vector<std::exception_ptr> errors(n);
  parallel_for_chunks(pool, n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t k = begin; k < end; ++k) {
      const std::size_t i = n - 1 - k;
      try {
        fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  parallel_for_chunks(pool, n, [&fn](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) fn(i);
  });
}

}  // namespace ayd::exec
