// The CRN pool under concurrent readers (sim/variate_pool.hpp): cursors
// on many threads walk the same replicas from staggered starts to
// different depths, and each must see exactly the sequence a
// single-threaded walk sees (under the scalar tier, the sequence
// sample_units draws from RngStream(seed, i)), while every chunk is
// generated, and counted, once.

#include "ayd/sim/variate_pool.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <latch>
#include <thread>
#include <vector>

#include "ayd/rng/simd.hpp"
#include "ayd/rng/stream.hpp"

namespace ayd::sim {
namespace {

using model::FailureDistSpec;

constexpr std::uint64_t kSeed = 0x5EEDULL;

/// Replicas in the directory's first segments and across their edges.
const std::vector<std::size_t> kReplicas = {0,  1,   2,   3,   5,   8,
                                            13, 63,  64,  65,  191, 192,
                                            500, 4999};

constexpr std::size_t kThreads = 6;

/// Draws thread t reads from each replica: 2.8 to 13.6 chunks of 128,
/// so the threads stop inside different chunks.
std::size_t depth(std::size_t t) {
  return kVariatePoolChunk * 2 + 100 + t * 277;
}

std::vector<double> walk(UnitVariatePool& pool, std::size_t replica,
                         std::size_t draws) {
  UnitVariatePool::Cursor cursor = pool.cursor(replica);
  std::vector<double> out(draws);
  for (double& z : out) z = cursor.next();
  return out;
}

TEST(VariatePool, ConcurrentCursorsSeeTheSingleThreadedSequence) {
  const FailureDistSpec spec = FailureDistSpec::weibull(0.7);
  const std::size_t deepest = depth(kThreads - 1);
  std::vector<rng::simd::Tier> tiers = {rng::simd::Tier::kScalar};
  if (rng::simd::avx2_available()) tiers.push_back(rng::simd::Tier::kAvx2);
  for (const rng::simd::Tier tier : tiers) {
    rng::simd::force_tier(tier);
    SCOPED_TRACE(rng::simd::tier_name(tier));

    UnitVariatePool reference_pool(spec, kSeed);
    std::vector<std::vector<double>> reference;
    for (const std::size_t i : kReplicas) {
      reference.push_back(walk(reference_pool, i, deepest));
    }
    if (tier == rng::simd::Tier::kScalar) {
      const auto unit = spec.instantiate(1.0);
      for (std::size_t r = 0; r < kReplicas.size(); ++r) {
        rng::RngStream stream(kSeed, kReplicas[r]);
        std::vector<double> drawn(deepest);
        unit->sample_units(stream, drawn.data(), drawn.size());
        ASSERT_EQ(drawn, reference[r]) << "replica " << kReplicas[r];
      }
    }

    // Thread t starts at replica t and walks every replica in a rotated
    // order, so threads meet on replicas at different positions.
    UnitVariatePool pool(spec, kSeed);
    std::vector<std::vector<std::vector<double>>> seen(
        kThreads, std::vector<std::vector<double>>(kReplicas.size()));
    std::latch start(static_cast<std::ptrdiff_t>(kThreads));
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        for (std::size_t j = 0; j < kReplicas.size(); ++j) {
          const std::size_t r = (t + j) % kReplicas.size();
          seen[t][r] = walk(pool, kReplicas[r], depth(t));
        }
      });
    }
    for (std::thread& thread : threads) thread.join();

    for (std::size_t t = 0; t < kThreads; ++t) {
      for (std::size_t r = 0; r < kReplicas.size(); ++r) {
        const std::vector<double> prefix(
            reference[r].begin(),
            reference[r].begin() + static_cast<std::ptrdiff_t>(depth(t)));
        ASSERT_EQ(seen[t][r], prefix)
            << "thread " << t << ", replica " << kReplicas[r];
      }
    }
    const std::size_t chunks =
        (deepest + kVariatePoolChunk - 1) / kVariatePoolChunk;
    EXPECT_EQ(pool.generated(), kReplicas.size() * chunks * kVariatePoolChunk);
    EXPECT_EQ(pool.generated(), reference_pool.generated());
  }
  rng::simd::clear_forced_tier();
}

TEST(VariatePool, CursorAcrossChunksMatchesOneBulkCall) {
  // The pool generates each replica a chunk at a time, yet its sequence
  // must be the one a single bulk call draws: under the AVX2 tier that
  // holds only because a chunk fills whole 4-lane groups (the kernels
  // hand an n % 4 tail to scalar libm), which is what lets the chunk
  // size change without changing a bit. Runs on the active tier.
  rng::simd::clear_forced_tier();
  SCOPED_TRACE(rng::simd::tier_name(rng::simd::active_tier()));
  constexpr std::size_t kDraws = 4 * kVariatePoolChunk + 36;
  static_assert(kDraws % 4 == 0);
  for (const FailureDistSpec& spec :
       {FailureDistSpec::weibull(0.7), FailureDistSpec::exponential(),
        FailureDistSpec::lognormal(1.2)}) {
    UnitVariatePool pool(spec, kSeed);
    const auto unit = spec.instantiate(1.0);
    for (const std::size_t i : {std::size_t{0}, std::size_t{3},
                                std::size_t{70}}) {
      rng::RngStream stream(kSeed, i);
      std::vector<double> bulk(kDraws);
      unit->sample_units_fast(stream, bulk.data(), bulk.size());
      ASSERT_EQ(walk(pool, i, kDraws), bulk)
          << spec.to_string() << ", replica " << i;
    }
  }
}

TEST(VariatePool, CopiedCursorsWalkOnIndependently) {
  // A copy resumes where its original stood, and the two then advance
  // separately (the simulators walk a register copy of their cursor).
  UnitVariatePool pool(FailureDistSpec::lognormal(1.0), kSeed);
  const std::vector<double> reference = walk(pool, 7, 3 * kVariatePoolChunk);
  UnitVariatePool::Cursor a = pool.cursor(7);
  for (std::size_t k = 0; k < kVariatePoolChunk + 10; ++k) (void)a.next();
  UnitVariatePool::Cursor b = a;
  for (std::size_t k = kVariatePoolChunk + 10; k < reference.size(); ++k) {
    ASSERT_EQ(a.next(), reference[k]) << k;
  }
  ASSERT_EQ(b.next(), reference[kVariatePoolChunk + 10]);
  EXPECT_EQ(pool.generated(), 3 * kVariatePoolChunk);
}

}  // namespace
}  // namespace ayd::sim
