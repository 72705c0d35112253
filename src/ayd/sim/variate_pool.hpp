// Sweep-aware common random numbers: one sampling pass per grid.
//
// Two grid points that share a (failure-dist shape, seed) scenario but
// differ only in rate / period / allocation draw *the same* engine words
// in the same order — replica i always reads RNG substream (seed, i) —
// and the expensive part of each draw, the unit-variate transform
// (-log(1-u), the unit Weibull deviate, the normal quantile), does not
// depend on the rate at all (model/failure_dist.hpp). So the unit
// variates of replica i form one shared sequence: every such point
// consumes a prefix of it, scaled per point by the cheap from_unit.
//
// UnitVariatePool materializes that sequence once, lazily, per replica:
// append-only chunks generated with the tier-dispatched bulk transform
// (rng/simd.hpp), shared read-only by every simulator that walks them
// through a Cursor. A fig5-style lambda sweep then pays for variate
// generation once for the whole grid instead of once per point — and the
// points become *common-random-number* comparisons, the classic variance
// reduction for comparing configurations (differences between neighboring
// points are no longer polluted by independent sampling noise).
//
// Reproducibility: under the scalar reference tier the pooled variates
// are bit-identical to what per-point sampling produces, so CRN is
// invisible in results there (tests/engine_crn_test.cpp pins this); under
// a SIMD tier the pool inherits that tier's golden tier. Results remain
// bit-identical at any thread count either way: chunk k of replica i has
// exactly one possible content, whichever thread generates it first.
//
// Concurrency: every candidate of a simulated search and every rung of
// its P ladder read the same replicas, so reads take no lock. A cursor
// finds its replica's store through a directory of CAS-published
// segments and follows the replica's chunk list through
// release/acquire-published links; only the cursor that reaches the end
// of the list locks that replica's store, to generate the next chunk
// (tests/sim_variate_pool_test.cpp races cursors on shared replicas).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "ayd/model/failure_dist.hpp"
#include "ayd/model/system.hpp"
#include "ayd/rng/stream.hpp"

namespace ayd::sim {

/// Unit variates generated per growth step. Every replica's store is
/// rounded up to whole chunks, and the units past its last read are
/// generated for nothing: one pass of perfbench's 336-question
/// `optimize` catalog generates 16,137,984 units at 256, 10,566,912 at
/// 128 and 9,792,384 at 64: 128 takes 88% of what 64 would save, with
/// half as many chunk allocations, store locks and transform calls.
/// Chunking is invisible in the values: chunk k holds words
/// [k·N, (k+1)·N) of the replica's stream, so the concatenated sequence
/// does not depend on N — provided N is a multiple of the 4 lanes, since
/// the AVX2 kernels hand an `n % 4` tail to the scalar libm expressions.
inline constexpr std::size_t kVariatePoolChunk = 128;
static_assert(kVariatePoolChunk % 4 == 0,
              "a chunk must fill whole AVX2 lanes, or the tail's scalar "
              "transform would make the variates depend on the chunk size");

/// The shared unit-variate sequences of one (failure-dist shape, seed)
/// scenario, one lazily grown store per replica. Thread-safe, and reads
/// take no lock: a replica's chunks form an append-only list whose links
/// are published with release/acquire, so a cursor follows chunks that
/// exist with one acquire load per chunk, and only a cursor that reaches
/// the end of the list locks the replica's store to generate the next
/// chunk. A chunk's content is a pure function of (spec, seed, replica,
/// chunk index).
class UnitVariatePool {
 public:
  /// `spec` must be eligible() (analytic kinds); trace replay does not
  /// factor through unit variates (variable word consumption).
  UnitVariatePool(const model::FailureDistSpec& spec, std::uint64_t seed);

  /// Hands the chunks back for the next pool to reuse (variate_pool.cpp).
  ~UnitVariatePool();

  UnitVariatePool(const UnitVariatePool&) = delete;
  UnitVariatePool& operator=(const UnitVariatePool&) = delete;

  /// True when the spec factors through the unit-variate API, i.e. a
  /// pool can serve it.
  [[nodiscard]] static bool eligible(const model::FailureDistSpec& spec) {
    return spec.kind() != model::FailureDistKind::kTraceReplay;
  }

  struct ChunkNode;
  struct ReplicaStore;

  /// A position in one replica's variate sequence. Starts at draw 0;
  /// next() returns successive unit variates, growing the shared store
  /// on demand. Cheap to copy-construct from cursor(); not thread-safe
  /// itself (one cursor per consuming simulator), but any number of
  /// cursors may walk the same replica concurrently.
  class Cursor {
   public:
    Cursor() = default;

    [[nodiscard]] double next() {
      if (remaining_ == 0) refill();
      --remaining_;
      return *ptr_++;
    }

    [[nodiscard]] bool valid() const { return pool_ != nullptr; }

   private:
    friend class UnitVariatePool;
    Cursor(UnitVariatePool* pool, ReplicaStore* store)
        : pool_(pool), store_(store) {}

    void refill();

    UnitVariatePool* pool_ = nullptr;
    ReplicaStore* store_ = nullptr;
    /// The chunk ptr_ walks (null before the first refill).
    ChunkNode* chunk_ = nullptr;
    const double* ptr_ = nullptr;
    std::size_t remaining_ = 0;
  };

  /// Cursor at the start of replica i's sequence (the position a fresh
  /// RngStream(seed, i) would sample from).
  [[nodiscard]] Cursor cursor(std::size_t replica);

  [[nodiscard]] std::uint64_t seed() const { return seed_; }
  [[nodiscard]] const model::FailureDistSpec& spec() const { return spec_; }
  /// Telemetry: unit variates generated so far, across all replicas.
  [[nodiscard]] std::size_t generated() const {
    return generated_.load(std::memory_order_relaxed);
  }

 private:
  /// Replicas of the directory's first segment; segment s holds
  /// kFirstSegment·2^s replicas, so kSegments of them reach past any
  /// replica count memory can hold.
  static constexpr std::size_t kFirstSegment = 64;
  static constexpr std::size_t kSegments = 57;

  /// Replica `replica`'s store, created by the first cursor to reach it.
  [[nodiscard]] ReplicaStore& store(std::size_t replica);

  /// The chunk after `prev` in `store` (its first chunk when `prev` is
  /// null), generated if no cursor has reached it yet.
  [[nodiscard]] ChunkNode* next_chunk(ReplicaStore& store, ChunkNode* prev);

  model::FailureDistSpec spec_;
  std::uint64_t seed_;
  /// Rate-1 instantiation: only its unit transform is used, which is
  /// rate-independent by the factorization contract.
  std::unique_ptr<const model::FailureDistribution> unit_dist_;
  /// Replica directory: segment s holds the stores of replicas
  /// [kFirstSegment·(2^s − 1), kFirstSegment·(2^(s+1) − 1)). Segments and
  /// stores are published with a compare-and-swap by the first cursor
  /// that needs them and never move, so a lookup takes no lock.
  std::array<std::atomic<std::atomic<ReplicaStore*>*>, kSegments> segments_{};
  std::atomic<std::size_t> generated_{0};
};

/// Engine-level registry: one UnitVariatePool per (failure-dist shape,
/// seed) scenario encountered during a sweep. Returns nullptr for specs
/// that cannot pool (trace replay) — callers fall back to independent
/// per-point sampling. Thread-safe; pools live as long as the cache (or
/// any caller-held shared_ptr).
class VariateCache {
 public:
  [[nodiscard]] std::shared_ptr<UnitVariatePool> pool_for(
      const model::FailureDistSpec& spec, std::uint64_t seed);

  /// Number of distinct (shape, seed) pools created so far.
  [[nodiscard]] std::size_t size() const;

 private:
  struct Entry {
    model::FailureDistSpec spec;
    std::uint64_t seed;
    std::shared_ptr<UnitVariatePool> pool;
  };
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

/// The one rule for which runs may read a CRN pool: a run on `sys` draws
/// every variate from one law that factors through unit variates only
/// when `sys` is plain (correlated and heterogeneous worlds interleave
/// several laws in one draw sequence) and its law is eligible
/// (not trace replay). Segmented patterns interleave the same way, so
/// their worlds refuse a pool on top (SegmentedWorld::unit_plain).
[[nodiscard]] bool crn_eligible(const model::System& sys);

/// The pool runs of VC patterns on `sys` at `seed` read: `cache`'s pool
/// for the (law, seed) when given, a fresh one otherwise; null when
/// !crn_eligible(sys), so the runs sample their own streams.
[[nodiscard]] std::shared_ptr<UnitVariatePool> crn_pool(
    const model::System& sys, std::uint64_t seed,
    VariateCache* cache = nullptr);

/// Refuses a CRN pool or cursor with the one pool message
/// (util::InvalidArgument) unless `accepted`: a run's world must be
/// unit-plain, and a pool built for the run's (law, seed).
void require_crn_pool(bool accepted);

}  // namespace ayd::sim
