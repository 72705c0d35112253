// xoshiro256++ 1.0 (Blackman & Vigna, 2019; public-domain reference
// implementation re-expressed in C++).
//
// Chosen over std::mt19937_64 because it is ~4x faster, has 256 bits of
// state, passes BigCrush, and provides jump() for cheaply
// partitioning the period into 2^128 non-overlapping substreams — exactly
// what deterministic parallel replication needs.
//
// Satisfies std::uniform_random_bit_generator.

#pragma once

#include <array>
#include <cstdint>

#include "ayd/rng/splitmix64.hpp"

namespace ayd::rng {

class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  /// Seeds the 256-bit state by running SplitMix64 on `seed` (the procedure
  /// recommended by the xoshiro authors; avoids all-zero state).
  explicit constexpr Xoshiro256(std::uint64_t seed = 0x853c49e6748fea9bULL) {
    std::uint64_t x = seed;
    for (auto& word : state_) word = splitmix64_next(x);
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  constexpr result_type operator()() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Advances the state by 2^128 steps: calling jump() n times on identical
  /// generators yields n non-overlapping sequences of length 2^128.
  constexpr void jump() { apply_jump(kJump); }

  [[nodiscard]] constexpr const std::array<std::uint64_t, 4>& state() const {
    return state_;
  }

  friend constexpr bool operator==(const Xoshiro256& a, const Xoshiro256& b) {
    return a.state_ == b.state_;
  }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  constexpr void apply_jump(const std::array<std::uint64_t, 4>& table) {
    std::array<std::uint64_t, 4> acc{0, 0, 0, 0};
    for (const std::uint64_t word : table) {
      for (int b = 0; b < 64; ++b) {
        if (word & (std::uint64_t{1} << b)) {
          for (int i = 0; i < 4; ++i) acc[static_cast<std::size_t>(i)] ^=
              state_[static_cast<std::size_t>(i)];
        }
        (void)(*this)();
      }
    }
    state_ = acc;
  }

  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace ayd::rng
