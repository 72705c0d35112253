#include "ayd/service/memo_cache.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "ayd/service/store.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::service {

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

MemoCache::MemoCache(std::size_t max_entries, std::size_t shards,
                     AnswerStore* store)
    : store_(store) {
  AYD_REQUIRE(max_entries >= 1, "MemoCache: max_entries must be >= 1");
  max_entries_ = max_entries;
  // Round up to a power of two, then halve back under the entry budget
  // (rounding before clamping could otherwise leave n > max_entries and
  // a total resident capacity above what the caller configured).
  std::size_t n = round_up_pow2(std::max<std::size_t>(shards, 1));
  while (n > max_entries) n >>= 1;
  per_shard_capacity_ = std::max<std::size_t>(1, max_entries / n);
  // Top bits select the shard, so keys with different hash prefixes land
  // on different mutexes (n is a power of two: n = 1 << k, shift 64 - k).
  unsigned bits = 0;
  while ((std::size_t{1} << bits) < n) ++bits;
  shard_shift_ = 64 - bits;
  shards_.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

MemoCache::Shard& MemoCache::shard_for(std::uint64_t hash) {
  // shift == 64 (single shard) is UB on a raw >>, so special-case it.
  const std::size_t index =
      shard_shift_ >= 64 ? 0 : static_cast<std::size_t>(hash >> shard_shift_);
  return *shards_[index];
}

MemoCache::Lookup MemoCache::get_or_compute(const CanonicalKey& key,
                                            const Compute& compute) {
  Shard& shard = shard_for(key.hash);
  std::shared_future<Value> wait_on;
  // Engaged when this thread owns the (single-flight) computation.
  std::optional<std::promise<Value>> owned;

  {
    const std::lock_guard lock(shard.mutex);
    const auto it = shard.entries.find(key.text);
    if (it != shard.entries.end()) {
      Entry& entry = it->second;
      if (entry.ready) {
        ++shard.hits;
        // Touch: move to the front of the LRU list.
        shard.lru.splice(shard.lru.begin(), shard.lru, entry.lru_pos);
        return {entry.result.get(), /*hit=*/true};
      }
      ++shard.coalesced;
      wait_on = entry.result;  // wait outside the lock
    } else {
      // The miss-vs-disk-hit counter is decided below, once the owner
      // has consulted the persistent tier.
      owned.emplace();
      Entry entry;
      entry.result = owned->get_future().share();
      shard.entries.emplace(key.text, std::move(entry));
    }
  }

  if (owned.has_value()) {
    // Publishes `value` as the completed entry: resolves the future,
    // marks ready, touches the LRU, evicts over capacity.
    const auto publish = [&](Value value) {
      owned->set_value(value);
      const std::lock_guard lock(shard.mutex);
      const auto it = shard.entries.find(key.text);
      if (it != shard.entries.end()) {
        it->second.ready = true;
        shard.lru.push_front(key.text);
        it->second.lru_pos = shard.lru.begin();
        while (shard.lru.size() > per_shard_capacity_) {
          shard.entries.erase(shard.lru.back());
          shard.lru.pop_back();
          ++shard.evictions;
        }
      }
    };

    // Tier 2, read-through: the single-flight owner checks the
    // persistent store before computing. Waiters on the in-flight
    // entry are served either way; a store read failure (quarantined
    // or concurrently damaged file) degrades to recomputation.
    if (store_ != nullptr) {
      std::optional<std::string> persisted;
      try {
        persisted = store_->get(key.text);
      } catch (const util::Error&) {
        persisted.reset();
      }
      if (persisted.has_value()) {
        Value value =
            std::make_shared<const std::string>(*std::move(persisted));
        publish(value);
        {
          const std::lock_guard lock(shard.mutex);
          ++shard.disk_hits;
        }
        return {std::move(value), /*hit=*/true};
      }
    }

    {
      const std::lock_guard lock(shard.mutex);
      ++shard.misses;
    }
    // Compute outside the lock (it may take seconds of simulation); the
    // in-flight entry parked concurrent identical requests on the future.
    try {
      Value value = std::make_shared<const std::string>(compute());
      publish(value);
      // Write-behind: persist after publishing so waiters are never
      // delayed by disk I/O; an append failure only costs persistence.
      if (store_ != nullptr) {
        try {
          store_->put(key.text, key.hash, *value);
        } catch (const util::Error&) {
          // Degraded store: keep serving from memory.
        }
      }
      return {std::move(value), /*hit=*/false};
    } catch (...) {
      owned->set_exception(std::current_exception());
      {
        const std::lock_guard lock(shard.mutex);
        const auto it = shard.entries.find(key.text);
        if (it != shard.entries.end() && !it->second.ready) {
          shard.entries.erase(it);
        }
      }
      throw;
    }
  }

  // Coalesced path: wait for the computing thread. get() rethrows the
  // computation's exception to every waiter.
  return {wait_on.get(), /*hit=*/true};
}

MemoCache::Value MemoCache::find(const CanonicalKey& key) {
  Shard& shard = shard_for(key.hash);
  const std::lock_guard lock(shard.mutex);
  const auto it = shard.entries.find(key.text);
  if (it == shard.entries.end() || !it->second.ready) return nullptr;
  ++shard.hits;
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second.lru_pos);
  return it->second.result.get();
}

CacheStats MemoCache::stats() const {
  CacheStats out;
  for (const auto& shard : shards_) {
    const std::lock_guard lock(shard->mutex);
    out.hits += shard->hits;
    out.misses += shard->misses;
    out.disk_hits += shard->disk_hits;
    out.coalesced += shard->coalesced;
    out.evictions += shard->evictions;
    out.entries += shard->entries.size();
  }
  return out;
}

}  // namespace ayd::service
