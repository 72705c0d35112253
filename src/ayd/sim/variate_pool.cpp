#include "ayd/sim/variate_pool.hpp"

#include <bit>
#include <new>

#include "ayd/util/contracts.hpp"

namespace ayd::sim {

struct UnitVariatePool::ChunkNode {
  std::array<double, kVariatePoolChunk> units;
  /// The replica's next chunk: null until a cursor generates it, then
  /// published with release order after its units are written, and never
  /// changed again (what makes lock-free reads safe).
  std::atomic<ChunkNode*> next{nullptr};
};

struct UnitVariatePool::ReplicaStore {
  explicit ReplicaStore(rng::RngStream s) : stream(s) {}
  /// The first chunk, published like ChunkNode::next.
  std::atomic<ChunkNode*> head{nullptr};
  /// Held only to generate a missing chunk; guards `stream`.
  std::mutex mu;
  /// Positioned after the words consumed by the generated chunks.
  rng::RngStream stream;
};

namespace {

using Chunk = UnitVariatePool::ChunkNode;

/// Chunks kept for reuse at most: 16 MiB of them, several times the
/// largest pool one optimum search or sweep pass builds.
constexpr std::size_t kRecycledChunkCap =
    (std::size_t{16} << 20) / sizeof(Chunk);

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
        chunk->next.store(nullptr, std::memory_order_relaxed);
        return chunk;
      }
    }
    return std::make_unique<Chunk>();
  }

  /// Takes the list starting at `head`.
  void give(Chunk* head) {
    const std::lock_guard<std::mutex> lock(mu_);
    while (head != nullptr) {
      std::unique_ptr<Chunk> chunk(head);
      head = chunk->next.load(std::memory_order_relaxed);
      if (free_.size() < kRecycledChunkCap) free_.push_back(std::move(chunk));
    }
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

/// Publishes `fresh` in `slot` unless another thread got there first;
/// returns whichever won.
template <typename T, typename Owner>
T* publish(std::atomic<T*>& slot, Owner fresh) {
  T* seen = nullptr;
  if (slot.compare_exchange_strong(seen, fresh.get(),
                                   std::memory_order_acq_rel,
                                   std::memory_order_acquire)) {
    return fresh.release();
  }
  return seen;
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
  for (std::size_t s = 0; s < kSegments; ++s) {
    std::atomic<ReplicaStore*>* segment =
        segments_[s].load(std::memory_order_acquire);
    if (segment == nullptr) continue;
    for (std::size_t j = 0; j < kFirstSegment << s; ++j) {
      ReplicaStore* store = segment[j].load(std::memory_order_acquire);
      if (store == nullptr) continue;
      recycler().give(store->head.load(std::memory_order_acquire));
      delete store;
    }
    delete[] segment;
  }
}

UnitVariatePool::ReplicaStore& UnitVariatePool::store(std::size_t replica) {
  const auto s = static_cast<std::size_t>(
      std::bit_width(replica / kFirstSegment + 1) - 1);
  // Segment s would hold 2^(s+6) stores: one this large cannot be
  // allocated, so fail the way allocating it would.
  if (s >= kSegments) throw std::bad_alloc();
  const std::size_t size = kFirstSegment << s;
  std::atomic<ReplicaStore*>* segment =
      segments_[s].load(std::memory_order_acquire);
  if (segment == nullptr) {
    segment = publish(segments_[s],
                      std::make_unique<std::atomic<ReplicaStore*>[]>(size));
  }
  std::atomic<ReplicaStore*>& slot = segment[replica - (size - kFirstSegment)];
  ReplicaStore* found = slot.load(std::memory_order_acquire);
  if (found != nullptr) return *found;
  return *publish(slot, std::make_unique<ReplicaStore>(
                            rng::RngStream(seed_, replica)));
}

UnitVariatePool::Cursor UnitVariatePool::cursor(std::size_t replica) {
  return Cursor(this, &store(replica));
}

UnitVariatePool::ChunkNode* UnitVariatePool::next_chunk(ReplicaStore& store,
                                                        ChunkNode* prev) {
  std::atomic<ChunkNode*>& link = prev != nullptr ? prev->next : store.head;
  ChunkNode* next = link.load(std::memory_order_acquire);
  if (next != nullptr) return next;
  const std::lock_guard<std::mutex> lock(store.mu);
  // Another cursor may have generated it while this one waited.
  next = link.load(std::memory_order_acquire);
  if (next != nullptr) return next;
  // Cursors walk the list in order, so `prev` is its last chunk and the
  // stream sits right after prev's words. They leave the replica's stream
  // in exactly the order per-point sampling would consume them; the
  // tier-dispatched transform turns them into unit variates in bulk.
  std::unique_ptr<ChunkNode> chunk = recycler().take();
  unit_dist_->sample_units_fast(store.stream, chunk->units.data(),
                                kVariatePoolChunk);
  generated_.fetch_add(kVariatePoolChunk, std::memory_order_relaxed);
  next = chunk.release();
  link.store(next, std::memory_order_release);
  return next;
}

void UnitVariatePool::Cursor::refill() {
  chunk_ = pool_->next_chunk(*store_, chunk_);
  ptr_ = chunk_->units.data();
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

bool crn_eligible(const model::System& sys) {
  return !sys.extended() && UnitVariatePool::eligible(sys.failure().dist());
}

std::shared_ptr<UnitVariatePool> crn_pool(const model::System& sys,
                                          std::uint64_t seed,
                                          VariateCache* cache) {
  if (!crn_eligible(sys)) return nullptr;
  if (cache != nullptr) return cache->pool_for(sys.failure().dist(), seed);
  return std::make_shared<UnitVariatePool>(sys.failure().dist(), seed);
}

void require_crn_pool(bool accepted) {
  AYD_REQUIRE(accepted,
              "a CRN pool feeds only VC patterns on a plain System whose law "
              "factors through unit variates, at the (law, seed) it was "
              "built for; segmented patterns and extended worlds interleave "
              "several laws in one draw sequence");
}

}  // namespace ayd::sim
