// Bit-compatibility pins for the simulator hot-path overhaul.
//
// The DES pending set, the batched unit-variate sampling, and the fast
// samplers' CDF-threshold filter are all required to be *bit-transparent*:
// same seed, same System, same pattern => the same PatternStats to the
// last bit as the straightforward implementations they replaced. Two
// layers of defense:
//
//  1. Hard pins: fixed-seed totals generated with the pre-overhaul
//     library (commit cdfae90), hex-float exact. Any future change that
//     perturbs a draw, a tie-break, or an accumulation order fails here.
//  2. A reference fast sampler reimplemented here from the paper's
//     semantics (draw-everything, no thresholds, no batching) run
//     against FastProtocolSimulator over many seeds and regimes.
//
// These pins define the *scalar reference tier* (rng/simd.hpp): the
// whole suite runs with the SIMD tier forced off, because the vectorized
// transcendental kernels are allowed to differ from libm by a few ULP
// and carry their own golden tier (tests/failure_dist_simd_test.cpp).
// The stream-fed fast path never calls a vectorized transform, so its
// pins hold under every tier, for every law — one case below checks
// that explicitly. The pool-fed (CRN) fast path does read vectorized
// variates, so it carries separate pins under the forced AVX2 tier.

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "ayd/model/failure_dist.hpp"
#include "ayd/model/system.hpp"
#include "ayd/rng/simd.hpp"
#include "ayd/sim/protocol.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/sim/segmented.hpp"
#include "ayd/sim/variate_pool.hpp"

namespace ayd::sim {
namespace {

/// Forces the scalar reference tier for every test in this binary.
const int kForceScalarTier = [] {
  rng::simd::force_tier(rng::simd::Tier::kScalar);
  return 0;
}();

using model::CostModel;
using model::FailureDistSpec;
using model::FailureModel;
using model::ResilienceCosts;
using model::Speedup;
using model::System;

System pinned_system(const FailureDistSpec& spec, double lambda = 1e-7,
                     double fail_stop_fraction = 0.4) {
  ResilienceCosts costs{CostModel::constant(300.0), CostModel::constant(300.0),
                        CostModel::constant(30.0)};
  return System(FailureModel(lambda, fail_stop_fraction), costs, 1800.0,
                Speedup::amdahl(0.1))
      .with_failure_dist(spec);
}

struct Pin {
  const char* name;
  Backend backend;
  double wall_time;  ///< hex-float exact, from the pre-overhaul library
  std::uint64_t attempts;
  std::uint64_t fail_stops;
  std::uint64_t recovery_fail_stops;
  std::uint64_t silent_detections;
  std::uint64_t masked_silent;
};

// Generated with the pre-overhaul library at seed 42, pattern
// (T=20000, P=256), 300 patterns (see file comment).
constexpr Pin kPins[] = {
    {"exponential", Backend::kFast, 0x1.150c3454631c6p+23, 481, 80, 0, 101, 8},
    {"exponential", Backend::kDes, 0x1.1117faaff9842p+23, 479, 83, 0, 96, 8},
    {"weibull_07", Backend::kFast, 0x1.80cc94f227779p+23, 751, 266, 13, 198, 40},
    {"weibull_07", Backend::kDes, 0x1.8b842c14d06b4p+23, 757, 248, 12, 221, 49},
    {"weibull_15", Backend::kFast, 0x1.bd186ac4ed94ep+22, 365, 24, 0, 41, 0},
    {"weibull_15", Backend::kDes, 0x1.bbdabd7fd7dabp+22, 363, 21, 0, 42, 1},
    {"lognormal_12", Backend::kFast, 0x1.52078d3e7fdefp+23, 587, 129, 0, 158, 25},
    {"lognormal_12", Backend::kDes, 0x1.6d0dd94723a49p+23, 637, 148, 0, 189, 28},
};

/// Pool-fed (CRN) fast-simulator totals under the forced AVX2 tier:
/// UnitVariatePool(spec, 42), replica cursors 0..3 with 75 patterns each,
/// pattern (T=20000, P=256). The exponential and the Weibull take the
/// unit-space walk, the lognormal the exact walk over AVX2-generated
/// variates. Generated at commit 6c7836e, except the silent-only row:
/// there the unit-space walk scaled an empty fail-stop sum by the
/// inactive channel's zero factor and returned NaN. That row pins the
/// repaired value, which equals the scalar tier's exact walk bit-for-bit.
struct PoolPin {
  const char* name;
  double fail_stop_fraction;
  double wall_time;
  std::uint64_t attempts;
  std::uint64_t fail_stops;
  std::uint64_t recovery_fail_stops;
  std::uint64_t silent_detections;
  std::uint64_t masked_silent;
};

constexpr PoolPin kAvx2PoolPins[] = {
    {"exponential", 0.4, 0x1.1818ee1d784aap+23, 492, 102, 2, 92, 11},
    {"weibull_07", 0.4, 0x1.75a05700559fbp+23, 725, 235, 10, 200, 41},
    {"weibull_07", 1.0, 0x1.11838f98fc42p+23, 615, 327, 12, 0, 0},
    {"weibull_07", 0.0, 0x1.79d654p+23, 609, 0, 0, 309, 0},
    {"lognormal_12", 0.4, 0x1.515dffdd7c6dp+23, 591, 139, 0, 152, 29},
};

/// DES totals under the forced AVX2 tier, whose batched unit block runs
/// the vectorized transforms. Stream-fed: seed 42, 300 patterns
/// (T=20000, P=256), plus the stream's next word (the block's prefetch
/// included). Pool-fed (CRN): UnitVariatePool(spec, 42), replica cursors
/// 0..3 with 75 patterns each. Generated at commit 1f1269b, before the DES
/// moved off its event queue.
struct DesPin {
  const char* name;
  bool pooled;
  double wall_time;
  std::uint64_t attempts;
  std::uint64_t fail_stops;
  std::uint64_t recovery_fail_stops;
  std::uint64_t silent_detections;
  std::uint64_t masked_silent;
  std::uint64_t next_word;  ///< stream-fed only
};

constexpr DesPin kAvx2DesPins[] = {
    {"exponential", false, 0x1.1117faaff9842p+23, 479, 83, 0, 96, 8,
     0xb01ed085370815d1},
    {"exponential", true, 0x1.1ad35e11c52c4p+23, 496, 90, 1, 107, 10, 0},
    {"weibull_07", false, 0x1.8b842c14d06b4p+23, 757, 248, 12, 221, 49,
     0x73f7af664400e118},
    {"weibull_07", true, 0x1.6d805abfbef5p+23, 717, 246, 13, 184, 63, 0},
    {"lognormal_12", false, 0x1.6d0dd94723a48p+23, 637, 148, 0, 189, 28,
     0x2ed1934320aff037},
    {"lognormal_12", true, 0x1.69c2851cb82c6p+23, 640, 161, 0, 179, 34, 0},
};

/// Plain fast-simulator cases the pins above leave open, under the scalar
/// tier at pattern (T=20000, P=256). Stream-fed: seed 42, 300 patterns,
/// plus the stream's next word. Pool-fed: UnitVariatePool(spec, 42),
/// replica cursors 0..3 with 75 patterns each, on the exact walk.
/// Generated at commit 798c496, before the plain fast simulator became the
/// one-segment case of the segmented interpreter.
struct FastPin {
  const char* name;
  double lambda;
  double fail_stop_fraction;
  bool pooled;
  double wall_time;
  std::uint64_t attempts;
  std::uint64_t fail_stops;
  std::uint64_t recovery_fail_stops;
  std::uint64_t silent_detections;
  std::uint64_t masked_silent;
  std::uint64_t next_word;  ///< stream-fed only
};

constexpr FastPin kPlainFastPins[] = {
    {"trace", 5e-7, 0.4, false, 0x1.d8992e0e0860bp+25, 6607, 6758, 1508, 1057,
     2642, 0xf4a437cad89aca8a},
    {"weibull_07", 5e-7, 1.0, false, 0x1.569c1ed5b1e79p+24, 2605, 2616, 311, 0,
     0, 0x15a9039539ebefbd},
    {"weibull_07", 5e-7, 0.0, false, 0x1.b1fc46p+25, 2798, 0, 0, 2498, 0,
     0xd1503714bd47f8bf},
    {"weibull_07", 1e-7, 0.4, true, 0x1.75a05700559fbp+23, 725, 235, 10, 200,
     41, 0},
    {"lognormal_12", 1e-7, 0.4, true, 0x1.515dffdd7c6dp+23, 591, 139, 0, 152,
     29, 0},
};

FailureDistSpec spec_for(const std::string& name) {
  if (name == "exponential") return FailureDistSpec::exponential();
  if (name == "weibull_07") return FailureDistSpec::weibull(0.7);
  if (name == "weibull_15") return FailureDistSpec::weibull(1.5);
  if (name == "trace") {
    return FailureDistSpec::trace_replay(
        {300.0, 4000.0, 90000.0, 12000.0, 650.0});
  }
  return FailureDistSpec::lognormal(1.2);
}

TEST(SimBitCompat, FixedSeedTotalsMatchPreOverhaulLibrary) {
  for (const Pin& pin : kPins) {
    const System sys = pinned_system(spec_for(pin.name));
    PatternStats totals;
    rng::RngStream rng(42);
    if (pin.backend == Backend::kFast) {
      FastProtocolSimulator simulator(sys, {20000.0, 256.0});
      for (int i = 0; i < 300; ++i) {
        totals.merge(simulator.simulate_pattern(rng));
      }
    } else {
      DesProtocolSimulator simulator(sys, {20000.0, 256.0});
      for (int i = 0; i < 300; ++i) {
        totals.merge(simulator.simulate_pattern(rng));
      }
    }
    const std::string label =
        std::string(pin.name) +
        (pin.backend == Backend::kFast ? "/fast" : "/des");
    // Bitwise, not approximate: the overhaul's contract is exactness.
    EXPECT_EQ(totals.wall_time, pin.wall_time) << label;
    EXPECT_EQ(totals.attempts, pin.attempts) << label;
    EXPECT_EQ(totals.fail_stop_errors, pin.fail_stops) << label;
    EXPECT_EQ(totals.recovery_fail_stops, pin.recovery_fail_stops) << label;
    EXPECT_EQ(totals.silent_detections, pin.silent_detections) << label;
    EXPECT_EQ(totals.masked_silent, pin.masked_silent) << label;
  }
}

TEST(SimBitCompat, PlainFastCasesWithoutAnOlderPinAreBitStable) {
  for (const FastPin& pin : kPlainFastPins) {
    const FailureDistSpec spec = spec_for(pin.name);
    FastProtocolSimulator simulator(
        pinned_system(spec, pin.lambda, pin.fail_stop_fraction),
        {20000.0, 256.0});
    PatternStats totals;
    std::uint64_t next_word = 0;
    if (pin.pooled) {
      UnitVariatePool pool(spec, 42);
      rng::RngStream unused(0);
      for (std::size_t replica = 0; replica < 4; ++replica) {
        UnitVariatePool::Cursor cursor = pool.cursor(replica);
        simulator.set_unit_cursor(&cursor);
        totals.merge(simulator.simulate_replica(unused, 75));
      }
      simulator.set_unit_cursor(nullptr);
    } else {
      rng::RngStream rng(42);
      for (int i = 0; i < 300; ++i) {
        totals.merge(simulator.simulate_pattern(rng));
      }
      next_word = rng.next_u64();
    }
    const std::string label = std::string(pin.name) +
                              " f=" + std::to_string(pin.fail_stop_fraction) +
                              (pin.pooled ? " pool-fed" : " stream-fed");
    EXPECT_EQ(totals.wall_time, pin.wall_time) << label;
    EXPECT_EQ(totals.attempts, pin.attempts) << label;
    EXPECT_EQ(totals.fail_stop_errors, pin.fail_stops) << label;
    EXPECT_EQ(totals.recovery_fail_stops, pin.recovery_fail_stops) << label;
    EXPECT_EQ(totals.silent_detections, pin.silent_detections) << label;
    EXPECT_EQ(totals.masked_silent, pin.masked_silent) << label;
    EXPECT_EQ(next_word, pin.next_word) << label;
  }
}

/// Reference fast sampler: the historical draw-everything loop (one
/// sample per attempt and per recovery try, straight off
/// FailureDistribution::sample), with no threshold filtering and no
/// batching. FastProtocolSimulator must reproduce it bit-for-bit.
PatternStats reference_fast_pattern(const System& sys,
                                    const core::Pattern& pattern,
                                    rng::RngStream& rng) {
  const double lf = sys.fail_stop_rate(pattern.procs);
  const double ls = sys.silent_rate(pattern.procs);
  const double t = pattern.period;
  const double v = sys.verification_cost(pattern.procs);
  const double c = sys.checkpoint_cost(pattern.procs);
  const double r = sys.recovery_cost(pattern.procs);
  const double d = sys.downtime();
  const auto fail_dist = sys.failure().dist().instantiate(lf);
  const auto silent_dist = sys.failure().dist().instantiate(ls);
  constexpr double kInf = std::numeric_limits<double>::infinity();

  PatternStats stats;
  double wall = 0.0;
  const auto sample_fail = [&] {
    return lf > 0.0 ? fail_dist->sample(rng) : kInf;
  };
  const auto sample_silent = [&] {
    return ls > 0.0 ? silent_dist->sample(rng) : kInf;
  };
  const auto run_recovery = [&] {
    for (;;) {
      const double y = sample_fail();
      if (y < r) {
        ++stats.fail_stop_errors;
        ++stats.recovery_fail_stops;
        wall += y + d;
        continue;
      }
      wall += r;
      return;
    }
  };
  for (;;) {
    ++stats.attempts;
    const double x = sample_fail();
    const double s_arrival = sample_silent();
    const bool silent = s_arrival < t;
    if (x < t + v) {
      ++stats.fail_stop_errors;
      if (silent && s_arrival < x) ++stats.masked_silent;
      wall += x + d;
      run_recovery();
      continue;
    }
    if (silent) {
      ++stats.silent_detections;
      wall += t + v;
      run_recovery();
      continue;
    }
    if (x < t + v + c) {
      ++stats.fail_stop_errors;
      wall += x + d;
      run_recovery();
      continue;
    }
    wall += t + v + c;
    stats.wall_time = wall;
    return stats;
  }
}

TEST(SimBitCompat, FastSamplerMatchesReferenceAcrossSeedsAndRegimes) {
  const FailureDistSpec specs[] = {
      FailureDistSpec::exponential(),
      FailureDistSpec::weibull(0.7),
      FailureDistSpec::weibull(1.5),
      FailureDistSpec::lognormal(1.2),
  };
  // Error-heavy and error-light regimes: exercise the no-error fast path,
  // every failure branch, recovery retries, and masking.
  const double lambdas[] = {3e-10, 1e-7, 8e-7};
  for (const auto& spec : specs) {
    for (const double lambda : lambdas) {
      ResilienceCosts costs{CostModel::constant(300.0),
                            CostModel::constant(300.0),
                            CostModel::constant(30.0)};
      const System sys =
          System(FailureModel(lambda, 0.4), costs, 1800.0,
                 Speedup::amdahl(0.1))
              .with_failure_dist(spec);
      const core::Pattern pattern{20000.0, 256.0};
      FastProtocolSimulator simulator(sys, pattern);
      for (std::uint64_t seed = 0; seed < 8; ++seed) {
        rng::RngStream ra(seed), rb(seed);
        for (int p = 0; p < 40; ++p) {
          const PatternStats got = simulator.simulate_pattern(ra);
          const PatternStats want = reference_fast_pattern(sys, pattern, rb);
          ASSERT_EQ(got.wall_time, want.wall_time)
              << "seed " << seed << " pattern " << p << " lambda " << lambda;
          ASSERT_EQ(got.attempts, want.attempts);
          ASSERT_EQ(got.fail_stop_errors, want.fail_stop_errors);
          ASSERT_EQ(got.recovery_fail_stops, want.recovery_fail_stops);
          ASSERT_EQ(got.silent_detections, want.silent_detections);
          ASSERT_EQ(got.masked_silent, want.masked_silent);
        }
        // Both consumed exactly the same words: the streams must be in
        // the same position.
        ASSERT_EQ(ra.next_u64(), rb.next_u64()) << "stream drift, seed "
                                                << seed;
      }
    }
  }
}

TEST(SimBitCompat, DesFiresFailStopOnExactAttemptEndTie) {
  // Trace-replay arrivals have atoms, so an arrival landing EXACTLY on
  // the attempt end (T+V+C) happens with real probability. The pending
  // fail-stop carries an older id than the checkpoint phase-end pushed
  // later, so on the (time, id) tie the fail-stop pops first and must
  // strike — the scheduling skip must not discard it. Gaps {2, 4} at
  // rate 1/6144 rescale to arrivals of exactly 4096 (== T+V+C, a tie
  // every time) or 8192 (beyond the attempt, never fires). Totals
  // generated with the pre-overhaul library at seed 5 (a discard-on-tie
  // bug shows up as fails == 0 and attempts == 100).
  ResilienceCosts costs{CostModel::constant(50.0), CostModel::constant(50.0),
                        CostModel::constant(46.0)};
  const System sys =
      System(FailureModel(1.0 / 6144.0 / 256.0, 1.0), costs, 10.0,
             Speedup::amdahl(0.1))
          .with_failure_dist(FailureDistSpec::trace_replay({2.0, 4.0}));
  DesProtocolSimulator des(sys, {4000.0, 256.0});
  rng::RngStream rng(5);
  PatternStats totals;
  for (int i = 0; i < 100; ++i) totals.merge(des.simulate_pattern(rng));
  EXPECT_EQ(totals.wall_time, 0x1.9f1bp+19);
  EXPECT_EQ(totals.attempts, 206u);
  EXPECT_EQ(totals.fail_stop_errors, 106u);
  EXPECT_EQ(totals.recovery_fail_stops, 0u);
}

TEST(SimBitCompat, WordThresholdIsSoundAtTheBoundary) {
  // Soundness contract of the fast samplers' filter: EVERY word at or
  // above safe_word_threshold(dist, window) must invert to an arrival
  // >= window. The dangerous region is just above the threshold, where
  // a cdf/quantile inconsistency (the lognormal's erfc cdf vs Acklam
  // quantile, ~1e-9 in z-space) could otherwise classify in-window
  // arrivals as "beyond the window". Scan it densely.
  constexpr std::uint64_t kScan = 300'000;
  constexpr std::uint64_t kWordMax = 1ULL << 53;
  const auto scan = [&](const model::FailureDistribution& dist, double window,
                        const std::string& label) {
    const std::uint64_t mthr = safe_word_threshold(dist, window);
    std::uint64_t violations = 0;
    const std::uint64_t end = std::min(kWordMax, mthr + kScan);
    for (std::uint64_t m = mthr; m < end; ++m) {
      const double u = static_cast<double>(m) * 0x1.0p-53;
      if (dist.sample_value(u) < window) ++violations;
    }
    EXPECT_EQ(violations, 0u)
        << label << ": words above the threshold invert inside the window";
  };
  const FailureDistSpec specs[] = {
      FailureDistSpec::exponential(),   FailureDistSpec::weibull(0.7),
      FailureDistSpec::weibull(1.5),    FailureDistSpec::lognormal(0.5),
      FailureDistSpec::lognormal(2.0),  FailureDistSpec::lognormal(8.0),
  };
  const double cdf_levels[] = {1e-12, 1e-6, 7e-3, 0.5};
  for (const auto& spec : specs) {
    const auto dist = spec.instantiate(1e-6);
    for (const double level : cdf_levels) {
      const double window = dist->quantile(level);
      if (!(window > 0.0)) continue;
      scan(*dist, window,
           spec.to_string() + " at cdf level " + std::to_string(level));
    }
  }

  // The windows the segmented fast interpreter filters against, at the
  // rates of a world that has them all (two-level n = 3 over a shock
  // with a PFS penalty): the silent source's T/n, and for every fail source
  // (the shock stream included) L, R_pfs and the full try window.
  for (const auto& spec : specs) {
    const System sys =
        pinned_system(spec, 3e-7).with_shock({0.6, 0.01, spec, 4.0});
    const detail::SegmentedWorld world(
        core::TwoLevelSystem{sys, CostModel::constant(60.0)},
        core::SegmentedPattern{20000.0, 256.0, 3});
    scan(*world.silent, world.work, spec.to_string() + " silent, T/n");
    for (const detail::FailSource& src : world.fail_sources) {
      const std::string label =
          spec.to_string() + (src.is_shock ? " shock" : " fail-stop");
      scan(*src.dist, world.level1, label + ", L");
      scan(*src.dist, world.pfs_recovery, label + ", R_pfs");
      scan(*src.dist, world.try_window(0), label + ", two-level try window");
    }
  }
}

TEST(SimBitCompat, DesDetectsStreamSwitchAndDiscardsStalePrefetch) {
  // The DES prefetches unit variates in blocks. Handing the simulator a
  // different RngStream mid-life (without begin_replica) must not serve
  // the new stream variates prefetched from the old one: the engine
  // fingerprint detects the switch and the second stream behaves
  // exactly as it does on a fresh simulator.
  const System sys = pinned_system(FailureDistSpec::weibull(0.7));
  const core::Pattern pattern{20000.0, 256.0};

  DesProtocolSimulator reused(sys, pattern);
  rng::RngStream a(1), b(2);
  (void)reused.simulate_pattern(a);  // leaves prefetch from stream 1
  PatternStats switched;
  for (int i = 0; i < 20; ++i) switched.merge(reused.simulate_pattern(b));

  DesProtocolSimulator fresh(sys, pattern);
  rng::RngStream b2(2);
  PatternStats expect;
  for (int i = 0; i < 20; ++i) expect.merge(fresh.simulate_pattern(b2));

  EXPECT_EQ(switched.wall_time, expect.wall_time);
  EXPECT_EQ(switched.attempts, expect.attempts);
  EXPECT_EQ(switched.fail_stop_errors, expect.fail_stop_errors);
  EXPECT_EQ(switched.silent_detections, expect.silent_detections);
}

TEST(SimBitCompat, SimulateReplicaEqualsPatternLoop) {
  const System sys = pinned_system(FailureDistSpec::weibull(0.7));
  const core::Pattern pattern{20000.0, 256.0};
  for (const Backend backend : {Backend::kFast, Backend::kDes}) {
    rng::RngStream ra(7), rb(7);
    PatternStats loop;
    PatternStats replica;
    if (backend == Backend::kFast) {
      FastProtocolSimulator a(sys, pattern), b(sys, pattern);
      for (int i = 0; i < 50; ++i) loop.merge(a.simulate_pattern(ra));
      replica = b.simulate_replica(rb, 50);
    } else {
      DesProtocolSimulator a(sys, pattern), b(sys, pattern);
      for (int i = 0; i < 50; ++i) loop.merge(a.simulate_pattern(ra));
      replica = b.simulate_replica(rb, 50);
    }
    EXPECT_EQ(loop.wall_time, replica.wall_time);
    EXPECT_EQ(loop.attempts, replica.attempts);
    EXPECT_EQ(loop.fail_stop_errors, replica.fail_stop_errors);
    EXPECT_EQ(loop.silent_detections, replica.silent_detections);
    EXPECT_EQ(loop.masked_silent, replica.masked_silent);
  }
}

// The stream-fed fast path never calls a vectorized kernel: the CDF
// threshold filter decides most draws from the raw word, and the rest go
// through the pinned scalar sample_value (trace replay draws through the
// scalar sample). So its totals and its stream position are the same bits
// under every tier and for every law — the scalar pins hold under AVX2,
// and so do failure-rich regimes where most draws need the inversion.
// (The DES backend's batched refill and the CRN pools do route transforms
// through the tier-dispatched kernels, so their bits are tier-specific.)
TEST(SimBitCompat, StreamFedFastPathIsTierInvariantForEveryLaw) {
  if (!rng::simd::avx2_available()) {
    GTEST_SKIP() << "AVX2 not available on this host";
  }
  const core::Pattern pattern{20000.0, 256.0};
  const auto run = [&](const System& sys, rng::simd::Tier tier) {
    rng::simd::force_tier(tier);
    FastProtocolSimulator simulator(sys, pattern);
    rng::RngStream rng(42);
    PatternStats totals;
    for (int i = 0; i < 300; ++i) totals.merge(simulator.simulate_pattern(rng));
    return std::pair{totals, rng.engine().state()};
  };

  for (const Pin& pin : kPins) {
    if (pin.backend != Backend::kFast) continue;
    const PatternStats totals =
        run(pinned_system(spec_for(pin.name)), rng::simd::Tier::kAvx2).first;
    EXPECT_EQ(totals.wall_time, pin.wall_time) << pin.name;
    EXPECT_EQ(totals.attempts, pin.attempts) << pin.name;
    EXPECT_EQ(totals.fail_stop_errors, pin.fail_stops) << pin.name;
    EXPECT_EQ(totals.recovery_fail_stops, pin.recovery_fail_stops)
        << pin.name;
    EXPECT_EQ(totals.silent_detections, pin.silent_detections) << pin.name;
    EXPECT_EQ(totals.masked_silent, pin.masked_silent) << pin.name;
  }

  // Failure-rich regimes (x5 the pinned rate: most draws land below the
  // threshold and need the quantile inversion), fail-stop-only and
  // silent-only worlds, and trace replay: AVX2 equals scalar bitwise.
  const struct {
    const char* label;
    System sys;
  } cases[] = {
      {"weibull_07 failure-rich",
       pinned_system(FailureDistSpec::weibull(0.7), 5e-7)},
      {"weibull_15 failure-rich",
       pinned_system(FailureDistSpec::weibull(1.5), 5e-7)},
      {"lognormal_12 failure-rich",
       pinned_system(FailureDistSpec::lognormal(1.2), 5e-7)},
      {"weibull_07 fail-stop only",
       pinned_system(FailureDistSpec::weibull(0.7), 5e-7, 1.0)},
      {"weibull_07 silent only",
       pinned_system(FailureDistSpec::weibull(0.7), 5e-7, 0.0)},
      {"trace replay",
       pinned_system(FailureDistSpec::trace_replay(
                         {300.0, 4000.0, 90000.0, 12000.0, 650.0}),
                     5e-7)},
  };
  for (const auto& c : cases) {
    const auto [scalar, scalar_state] = run(c.sys, rng::simd::Tier::kScalar);
    const auto [simd, simd_state] = run(c.sys, rng::simd::Tier::kAvx2);
    EXPECT_EQ(simd.wall_time, scalar.wall_time) << c.label;
    EXPECT_EQ(simd.attempts, scalar.attempts) << c.label;
    EXPECT_EQ(simd.fail_stop_errors, scalar.fail_stop_errors) << c.label;
    EXPECT_EQ(simd.recovery_fail_stops, scalar.recovery_fail_stops)
        << c.label;
    EXPECT_EQ(simd.silent_detections, scalar.silent_detections) << c.label;
    EXPECT_EQ(simd.masked_silent, scalar.masked_silent) << c.label;
    EXPECT_EQ(simd_state, scalar_state) << c.label;
  }
  rng::simd::force_tier(rng::simd::Tier::kScalar);
}

TEST(SimBitCompat, PoolFedFastPinsHoldUnderAvx2Tier) {
  if (!rng::simd::avx2_available()) {
    GTEST_SKIP() << "AVX2 not available on this host";
  }
  rng::simd::force_tier(rng::simd::Tier::kAvx2);
  for (const PoolPin& pin : kAvx2PoolPins) {
    const FailureDistSpec spec = spec_for(pin.name);
    const System sys = pinned_system(spec, 1e-7, pin.fail_stop_fraction);
    UnitVariatePool pool(spec, 42);
    FastProtocolSimulator simulator(sys, {20000.0, 256.0});
    rng::RngStream unused(0);
    PatternStats totals;
    for (std::size_t replica = 0; replica < 4; ++replica) {
      UnitVariatePool::Cursor cursor = pool.cursor(replica);
      simulator.set_unit_cursor(&cursor);
      totals.merge(simulator.simulate_replica(unused, 75));
    }
    simulator.set_unit_cursor(nullptr);
    const std::string label =
        std::string(pin.name) + " f=" + std::to_string(pin.fail_stop_fraction);
    EXPECT_EQ(totals.wall_time, pin.wall_time) << label;
    EXPECT_EQ(totals.attempts, pin.attempts) << label;
    EXPECT_EQ(totals.fail_stop_errors, pin.fail_stops) << label;
    EXPECT_EQ(totals.recovery_fail_stops, pin.recovery_fail_stops) << label;
    EXPECT_EQ(totals.silent_detections, pin.silent_detections) << label;
    EXPECT_EQ(totals.masked_silent, pin.masked_silent) << label;
  }
  rng::simd::force_tier(rng::simd::Tier::kScalar);
}

TEST(SimBitCompat, DesPinsHoldUnderAvx2Tier) {
  if (!rng::simd::avx2_available()) {
    GTEST_SKIP() << "AVX2 not available on this host";
  }
  rng::simd::force_tier(rng::simd::Tier::kAvx2);
  for (const DesPin& pin : kAvx2DesPins) {
    const FailureDistSpec spec = spec_for(pin.name);
    DesProtocolSimulator simulator(pinned_system(spec), {20000.0, 256.0});
    PatternStats totals;
    std::uint64_t next_word = 0;
    if (pin.pooled) {
      UnitVariatePool pool(spec, 42);
      rng::RngStream unused(0);
      for (std::size_t replica = 0; replica < 4; ++replica) {
        UnitVariatePool::Cursor cursor = pool.cursor(replica);
        simulator.set_unit_cursor(&cursor);
        simulator.begin_replica();
        totals.merge(simulator.simulate_replica(unused, 75));
      }
      simulator.set_unit_cursor(nullptr);
    } else {
      rng::RngStream rng(42);
      for (int i = 0; i < 300; ++i) {
        totals.merge(simulator.simulate_pattern(rng));
      }
      next_word = rng.next_u64();
    }
    const std::string label =
        std::string(pin.name) + (pin.pooled ? " pool-fed" : " stream-fed");
    EXPECT_EQ(totals.wall_time, pin.wall_time) << label;
    EXPECT_EQ(totals.attempts, pin.attempts) << label;
    EXPECT_EQ(totals.fail_stop_errors, pin.fail_stops) << label;
    EXPECT_EQ(totals.recovery_fail_stops, pin.recovery_fail_stops) << label;
    EXPECT_EQ(totals.silent_detections, pin.silent_detections) << label;
    EXPECT_EQ(totals.masked_silent, pin.masked_silent) << label;
    EXPECT_EQ(next_word, pin.next_word) << label;
  }
  rng::simd::force_tier(rng::simd::Tier::kScalar);
}

}  // namespace
}  // namespace ayd::sim
