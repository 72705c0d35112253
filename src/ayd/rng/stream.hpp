// Deterministic RNG streams for parallel replication.
//
// Replica i of an experiment seeded with s draws from the stream derived
// from (s, i) via a SplitMix64 mix. Because the derivation is a pure
// function of (seed, stream id), the sequence each replica sees is
// independent of which thread runs it and of how many threads exist —
// experiment results are bit-identical from 1 to N threads.

#pragma once

#include <cstdint>

#include "ayd/rng/distributions.hpp"
#include "ayd/rng/splitmix64.hpp"
#include "ayd/rng/xoshiro256.hpp"

namespace ayd::rng {

class RngStream {
 public:
  /// Root stream for an experiment seed.
  explicit RngStream(std::uint64_t seed) : engine_(seed) {}

  /// Substream `stream_id` of experiment `seed` (deterministic, collision-
  /// free derivation through a bijective mixer).
  RngStream(std::uint64_t seed, std::uint64_t stream_id)
      : engine_(mix64(seed, stream_id)) {}

  /// Derives a child stream (e.g. one per simulated replica within a
  /// worker). Children of distinct ids never share a seed derivation.
  [[nodiscard]] RngStream child(std::uint64_t stream_id) const {
    return RngStream(engine_.state()[0] ^ engine_.state()[2], stream_id);
  }

  [[nodiscard]] std::uint64_t next_u64() { return engine_(); }
  [[nodiscard]] double next_uniform01() { return uniform01(engine_); }
  [[nodiscard]] double next_uniform(double lo, double hi) {
    return uniform(engine_, lo, hi);
  }
  /// Exponential inter-arrival with the given rate; +inf when rate == 0.
  [[nodiscard]] double next_exponential(double rate) {
    return exponential(engine_, rate);
  }
  [[nodiscard]] bool next_bernoulli(double p) {
    return bernoulli(engine_, p);
  }
  [[nodiscard]] std::uint64_t next_index(std::uint64_t n) {
    return uniform_index(engine_, n);
  }

  /// Bulk fill: `out[i]` is bit-identical to the value the i-th of `n`
  /// successive next_u64() calls would return. The tight loop lets the
  /// engine's state updates pipeline instead of alternating with consumer
  /// work.
  void fill_u64(std::uint64_t* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = engine_();
  }

  /// Bulk fill: `out[i]` is bit-identical to the value the i-th of `n`
  /// successive next_uniform01() calls would return (same words consumed,
  /// in the same order).
  void fill_uniform01(double* out, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) out[i] = uniform01(engine_);
  }

  /// Access to the raw engine for generic <random>-style use.
  [[nodiscard]] Xoshiro256& engine() { return engine_; }

 private:
  Xoshiro256 engine_;
};

}  // namespace ayd::rng
