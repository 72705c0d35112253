#include "ayd/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>

namespace ayd::exec {

namespace {

/// The pool whose worker loop runs on this thread; null on every other
/// thread. parallel_for_chunks reads it to spot nested calls.
thread_local const ThreadPool* t_worker_pool = nullptr;

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

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void parallel_for_chunks(
    ThreadPool& pool, std::size_t n,
    const std::function<void(std::size_t, std::size_t)>& fn,
    std::size_t min_chunk) {
  if (n == 0) return;
  const std::size_t chunks = std::clamp<std::size_t>(
      n / std::max<std::size_t>(min_chunk, 1), 1, 4 * pool.size());
  // A call from one of this pool's own workers runs inline as one chunk:
  // queueing chunks and blocking on them could deadlock once every worker
  // is such a caller. The outer level already keeps the pool busy. A
  // single chunk runs inline too: handing it to a worker only adds the
  // dispatch.
  if (t_worker_pool == &pool || chunks == 1) {
    fn(0, n);
    return;
  }
  const std::size_t chunk = (n + chunks - 1) / chunks;
  std::vector<std::future<void>> futures;
  futures.reserve(chunks);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, n);
    futures.push_back(pool.submit([&fn, begin, end] { fn(begin, end); }));
  }
  std::exception_ptr first_error;
  for (auto& fut : futures) {
    try {
      fut.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
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
