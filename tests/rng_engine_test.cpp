#include "ayd/rng/xoshiro256.hpp"

#include <gtest/gtest.h>
#include <set>

#include "ayd/rng/splitmix64.hpp"

namespace ayd::rng {
namespace {

TEST(SplitMix64, KnownFirstOutputs) {
  // Reference sequence for seed 0 (Vigna's splitmix64.c test vector).
  std::uint64_t state = 0;
  EXPECT_EQ(splitmix64_next(state), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(splitmix64_next(state), 0x6E789E6AA1B965F4ULL);
  EXPECT_EQ(splitmix64_next(state), 0x06C45D188009454FULL);
}

TEST(SplitMix64, Bijective) {
  // Distinct inputs give distinct outputs on a sample.
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    std::uint64_t s = i;
    outputs.insert(splitmix64_next(s));
  }
  EXPECT_EQ(outputs.size(), 4096u);
}

TEST(Mix64, DistinctPairsDistinctOutputs) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t a = 0; a < 64; ++a) {
    for (std::uint64_t b = 0; b < 64; ++b) {
      outputs.insert(mix64(a, b));
    }
  }
  EXPECT_EQ(outputs.size(), 64u * 64u);
}

TEST(Mix64, OrderSensitive) { EXPECT_NE(mix64(1, 2), mix64(2, 1)); }

TEST(Xoshiro256, DeterministicForSameSeed) {
  Xoshiro256 a(12345), b(12345);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Xoshiro256, DifferentSeedsDiffer) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LE(same, 1);
}

TEST(Xoshiro256, StateNeverAllZero) {
  Xoshiro256 eng(0);  // seed 0 must still produce a live state
  const auto& s = eng.state();
  EXPECT_TRUE(s[0] != 0 || s[1] != 0 || s[2] != 0 || s[3] != 0);
  // And the generator must not be stuck.
  const auto x = eng();
  const auto y = eng();
  EXPECT_NE(x, y);
}

TEST(Xoshiro256, JumpChangesStateDeterministically) {
  Xoshiro256 a(7), b(7);
  a.jump();
  EXPECT_NE(a.state(), b.state());
  Xoshiro256 c(7);
  c.jump();
  EXPECT_EQ(a.state(), c.state());
}

TEST(Xoshiro256, JumpedStreamsDoNotOverlapShortRange) {
  Xoshiro256 a(99);
  Xoshiro256 b(99);
  b.jump();
  // Collect a window from each; with a 2^128 jump they must be disjoint
  // in any feasible sample.
  std::set<std::uint64_t> wa;
  for (int i = 0; i < 1000; ++i) wa.insert(a());
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(wa.count(b()), 0u);
}

TEST(Xoshiro256, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Xoshiro256>);
  EXPECT_EQ(Xoshiro256::min(), 0u);
  EXPECT_EQ(Xoshiro256::max(), ~std::uint64_t{0});
}

TEST(Xoshiro256, EqualityComparesState) {
  Xoshiro256 a(3), b(3);
  EXPECT_TRUE(a == b);
  (void)a();
  EXPECT_FALSE(a == b);
}

}  // namespace
}  // namespace ayd::rng
