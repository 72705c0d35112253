// Random variates on top of any uniform_random_bit_generator producing
// 64-bit words.
//
// Implemented from scratch (no <random> distributions) so that streams are
// bit-reproducible across standard libraries — libstdc++ and libc++ are
// free to implement std::exponential_distribution differently, which would
// make "same seed, same results" false across platforms.

#pragma once

#include <cstdint>
#include <limits>

#include "ayd/util/contracts.hpp"

namespace ayd::rng {

/// Uniform double in [0, 1) with 53 random bits (top bits of the word).
template <typename Engine>
[[nodiscard]] double uniform01(Engine& eng) {
  return static_cast<double>(eng() >> 11) * 0x1.0p-53;
}

/// Uniform double in (0, 1]; never returns 0 (safe for log()).
template <typename Engine>
[[nodiscard]] double uniform01_open_low(Engine& eng) {
  return 1.0 - uniform01(eng);
}

/// Uniform double in [lo, hi).
template <typename Engine>
[[nodiscard]] double uniform(Engine& eng, double lo, double hi) {
  AYD_REQUIRE(lo < hi, "uniform requires lo < hi");
  return lo + (hi - lo) * uniform01(eng);
}

/// Exponential variate with the given rate (inverse-CDF method).
/// rate == 0 is allowed and yields +infinity ("the error never arrives"),
/// which is exactly the semantics the simulator wants for f == 0 or s == 0.
template <typename Engine>
[[nodiscard]] double exponential(Engine& eng, double rate) {
  AYD_REQUIRE(rate >= 0, "exponential rate must be nonnegative");
  if (rate == 0.0) {
    // Consume a word anyway so that enabling/disabling an error source does
    // not shift the stream consumed by everything else.
    (void)eng();
    return std::numeric_limits<double>::infinity();
  }
  return -std::log(uniform01_open_low(eng)) / rate;
}

/// Bernoulli trial with success probability p in [0, 1].
template <typename Engine>
[[nodiscard]] bool bernoulli(Engine& eng, double p) {
  AYD_REQUIRE(p >= 0.0 && p <= 1.0, "bernoulli p must be in [0,1]");
  return uniform01(eng) < p;
}

/// Uniform integer in [0, n) by Lemire's multiply-shift rejection method
/// (unbiased).
template <typename Engine>
[[nodiscard]] std::uint64_t uniform_index(Engine& eng, std::uint64_t n) {
  AYD_REQUIRE(n > 0, "uniform_index requires n > 0");
  __extension__ typedef unsigned __int128 u128;  // GCC/Clang builtin
  std::uint64_t x = eng();
  u128 m = static_cast<u128>(x) * static_cast<u128>(n);
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = (0 - n) % n;
    while (lo < threshold) {
      x = eng();
      m = static_cast<u128>(x) * static_cast<u128>(n);
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

namespace detail {
/// Acklam's rational approximation to the standard normal quantile,
/// |relative error| < 1.15e-9 — plenty for sampling and CI construction.
[[nodiscard]] double normal_quantile(double p);
}  // namespace detail

}  // namespace ayd::rng
