#include "ayd/sim/variate_pool.hpp"

#include "ayd/util/contracts.hpp"

namespace ayd::sim {

namespace {

using Chunk = std::array<double, kVariatePoolChunk>;

/// Chunks kept for reuse at most: 16 MiB, several times the largest
/// pool one optimum search or sweep pass builds.
constexpr std::size_t kRecycledChunkCap = 8192;

/// Process-wide free list of chunks. Pools are short-lived (one per
/// search or sweep pass) and grown by whichever worker thread first
/// needs a chunk, so without it each thread's allocator arena keeps its
/// own high-water mark: a pool grown mostly on one worker cannot reuse
/// the memory an earlier pool left on another, and peak memory grows
/// with the thread count. Recycled, it stays at the largest live pool.
class ChunkRecycler {
 public:
  std::unique_ptr<Chunk> take() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      if (!free_.empty()) {
        std::unique_ptr<Chunk> chunk = std::move(free_.back());
        free_.pop_back();
        return chunk;
      }
    }
    return std::make_unique<Chunk>();
  }

  void give(std::vector<std::unique_ptr<Chunk>>& chunks) {
    const std::lock_guard<std::mutex> lock(mu_);
    for (std::unique_ptr<Chunk>& chunk : chunks) {
      if (free_.size() == kRecycledChunkCap) break;
      free_.push_back(std::move(chunk));
    }
    chunks.clear();
  }

 private:
  std::mutex mu_;
  std::vector<std::unique_ptr<Chunk>> free_;
};

/// Never destroyed, so pools that outlive static destruction still find
/// it.
ChunkRecycler& recycler() {
  static ChunkRecycler* const instance = new ChunkRecycler;
  return *instance;
}

}  // namespace

UnitVariatePool::UnitVariatePool(const model::FailureDistSpec& spec,
                                 std::uint64_t seed)
    : spec_(spec), seed_(seed), unit_dist_(spec.instantiate(1.0)) {
  AYD_REQUIRE(eligible(spec),
              "UnitVariatePool: spec does not factor through unit variates");
  AYD_REQUIRE(unit_dist_->unit_samplable(),
              "UnitVariatePool: rate-1 instantiation is not unit-samplable");
}

UnitVariatePool::~UnitVariatePool() {
  for (const std::unique_ptr<ReplicaStore>& store : replicas_) {
    recycler().give(store->chunks);
  }
}

UnitVariatePool::Cursor UnitVariatePool::cursor(std::size_t replica) {
  std::lock_guard<std::mutex> lock(mu_);
  while (replicas_.size() <= replica) {
    replicas_.push_back(std::make_unique<ReplicaStore>(
        rng::RngStream(seed_, replicas_.size())));
  }
  return Cursor(this, replicas_[replica].get());
}

const double* UnitVariatePool::acquire_chunk(ReplicaStore& store,
                                             std::size_t index) {
  std::lock_guard<std::mutex> lock(store.mu);
  while (store.chunks.size() <= index) {
    std::unique_ptr<Chunk> chunk = recycler().take();
    // Words leave the replica's stream in exactly the order per-point
    // sampling would consume them; the tier-dispatched transform turns
    // them into unit variates in bulk.
    unit_dist_->sample_units_fast(store.stream, chunk->data(),
                                  kVariatePoolChunk);
    store.chunks.push_back(std::move(chunk));
    generated_.fetch_add(kVariatePoolChunk, std::memory_order_relaxed);
  }
  return store.chunks[index]->data();
}

void UnitVariatePool::Cursor::refill() {
  ptr_ = pool_->acquire_chunk(*store_, next_chunk_);
  ++next_chunk_;
  remaining_ = kVariatePoolChunk;
}

std::shared_ptr<UnitVariatePool> VariateCache::pool_for(
    const model::FailureDistSpec& spec, std::uint64_t seed) {
  if (!UnitVariatePool::eligible(spec)) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  for (const Entry& e : entries_) {
    if (e.seed == seed && e.spec == spec) return e.pool;
  }
  entries_.push_back(
      {spec, seed, std::make_shared<UnitVariatePool>(spec, seed)});
  return entries_.back().pool;
}

std::size_t VariateCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace ayd::sim
