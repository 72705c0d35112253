// Sharded, thread-safe, single-flight LRU memo cache for the planning
// service.
//
// The cache maps a canonical request key (see canonical.hpp) to the
// serialised result JSON of its evaluation. Cached answers stay valid
// forever: every evaluation in this repository is a pure, deterministic
// function of the resolved request (simulation replica i always draws
// RNG substream (seed, i)), so a stored reply — confidence intervals
// included — is bit-identical to what a recomputation would produce.
// That determinism invariant is what makes memoisation sound here, and
// tests/service_cache_test.cpp pins it.
//
// Concurrency design:
//  * N shards (a power of two), selected by the top bits of the 64-bit
//    content hash; each shard owns a mutex, an open-addressed map from
//    canonical text to entry, and an LRU list. Requests with different
//    hash prefixes never contend.
//  * Single-flight: the first thread to miss a key inserts an in-flight
//    entry and computes outside the shard lock; concurrent requests for
//    the same key find the entry and block on its shared_future instead
//    of recomputing ("coalesced" in the stats). A failed computation
//    removes the entry so later requests retry.
//  * Eviction is per shard, LRU over *completed* entries only, with a
//    per-shard capacity of max(1, max_entries / shards). In-flight
//    entries are never evicted (their waiters hold the future).
//  * Tier 2 (optional): a persistent AnswerStore (store.hpp). The
//    single-flight owner of a miss consults the store *before*
//    computing (read-through; a disk hit is promoted into the LRU and
//    counted as `disk_hits`, not a miss) and appends every freshly
//    computed answer after publishing it (write-behind). Concurrency
//    semantics are unchanged: coalesced waiters never touch the store,
//    and a store I/O failure silently degrades to recomputation —
//    the disk tier can accelerate, never break, an answer.

#pragma once

#include <cstdint>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "ayd/service/canonical.hpp"

namespace ayd::service {

class AnswerStore;

/// Cumulative cache telemetry (monotone counters + the resident size).
struct CacheStats {
  std::uint64_t hits = 0;       ///< served from a completed entry
  std::uint64_t misses = 0;     ///< triggered a computation
  std::uint64_t disk_hits = 0;  ///< served from the persistent tier (promoted)
  std::uint64_t coalesced = 0;  ///< waited on another thread's in-flight computation
  std::uint64_t evictions = 0;  ///< completed entries dropped by LRU pressure
  std::size_t entries = 0;      ///< resident entries (completed + in-flight)
};

class MemoCache {
 public:
  /// `max_entries` is the total completed-entry capacity (>= 1, split
  /// evenly across shards); `shards` is rounded up to a power of two,
  /// then halved while above `max_entries`, so the total resident
  /// capacity (shards x per-shard LRU) never exceeds `max_entries`.
  /// `store`, when non-null, is the persistent tier-2 (not owned; must
  /// outlive the cache).
  MemoCache(std::size_t max_entries, std::size_t shards,
            AnswerStore* store = nullptr);

  MemoCache(const MemoCache&) = delete;
  MemoCache& operator=(const MemoCache&) = delete;

  /// The computation a miss runs; its return value is what gets cached.
  using Compute = std::function<std::string()>;

  /// One lookup's outcome: the (possibly shared) cached value and
  /// whether it was served without running `compute` on this call.
  struct Lookup {
    std::shared_ptr<const std::string> value;
    bool hit = false;
  };

  /// Returns the value for `key`, running `compute` on a cold miss.
  /// Concurrent callers with the same key compute once and share the
  /// result. Exceptions from `compute` propagate to every waiter and
  /// leave the key uncached.
  [[nodiscard]] Lookup get_or_compute(const CanonicalKey& key,
                                      const Compute& compute);

  /// Probe only: the value of a completed entry for `key`, counted as
  /// one hit and touched in the LRU; null when the key is absent or
  /// still in flight, counting nothing. Never computes and never reads
  /// the persistent tier (the planning service's front memo probes
  /// this way and falls back to get_or_compute on null).
  [[nodiscard]] std::shared_ptr<const std::string> find(
      const CanonicalKey& key);

  /// Snapshot of the counters across all shards.
  [[nodiscard]] CacheStats stats() const;

  [[nodiscard]] std::size_t shard_count() const { return shards_.size(); }
  [[nodiscard]] std::size_t max_entries() const { return max_entries_; }

 private:
  using Value = std::shared_ptr<const std::string>;

  struct Entry {
    std::shared_future<Value> result;
    bool ready = false;
    /// Position in the shard's LRU list; valid only when `ready`.
    std::list<std::string>::iterator lru_pos;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> entries;
    /// Completed keys, most recently used first.
    std::list<std::string> lru;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t disk_hits = 0;
    std::uint64_t coalesced = 0;
    std::uint64_t evictions = 0;
  };

  [[nodiscard]] Shard& shard_for(std::uint64_t hash);

  std::size_t max_entries_;
  std::size_t per_shard_capacity_;
  unsigned shard_shift_;  ///< shard index = hash >> shard_shift_
  std::vector<std::unique_ptr<Shard>> shards_;
  AnswerStore* store_;  ///< optional persistent tier-2 (not owned)
};

}  // namespace ayd::service
