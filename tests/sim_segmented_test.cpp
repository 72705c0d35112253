// Tests of the segmented-pattern interpreters (sim/segmented.hpp): the
// n = 1 reductions to the VC pattern, hex-float pins of every segmented
// world under every law on both interpreters, divergence bounds, and the
// DES trace of a multi-verification pattern.

#include "ayd/sim/segmented.hpp"

#include <cstdlib>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "ayd/core/first_order.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/util/error.hpp"

namespace ayd::sim {
namespace {

using model::CostModel;
using model::FailureModel;
using model::ResilienceCosts;
using model::Speedup;
using model::System;

System make_system(double lambda, double f, double c, double v, double d) {
  ResilienceCosts costs{CostModel::constant(c), CostModel::constant(c),
                        CostModel::constant(v)};
  return System(FailureModel(lambda, f), costs, d, Speedup::amdahl(0.1));
}

void expect_same_stats(const PatternStats& a, const PatternStats& b) {
  EXPECT_EQ(a.wall_time, b.wall_time);
  EXPECT_EQ(a.fail_stop_errors, b.fail_stop_errors);
  EXPECT_EQ(a.recovery_fail_stops, b.recovery_fail_stops);
  EXPECT_EQ(a.silent_detections, b.silent_detections);
  EXPECT_EQ(a.masked_silent, b.masked_silent);
}

TEST(SegmentedReduction, MultiOneSegmentIsTheVcPatternBitwise) {
  // n = 1 makes exactly the plain general loop's draws in its order, so
  // on a plain exponential System the multi interpreter reproduces the
  // bit-pinned FastProtocolSimulator pattern for pattern.
  const System sys = make_system(2e-7, 0.4, 300.0, 30.0, 1800.0);
  FastProtocolSimulator vc(sys, {20000.0, 256.0});
  SegmentedFastSimulator multi(sys, core::SegmentedPattern{20000.0, 256.0, 1});
  rng::RngStream ra(41), rb(41);
  for (int i = 0; i < 200; ++i) {
    const PatternStats a = vc.simulate_pattern(ra);
    const PatternStats b = multi.simulate_pattern(rb);
    expect_same_stats(a, b);
    EXPECT_EQ(a.attempts, b.attempts);
  }

  ReplicationOptions opt;
  opt.replicas = 12;
  opt.patterns_per_replica = 30;
  const ReplicationResult r1 = simulate_overhead(sys, {20000.0, 256.0}, opt);
  const ReplicationResult r2 =
      simulate_segmented_overhead(sys, {20000.0, 256.0, 1}, opt);
  EXPECT_EQ(r1.overhead.mean, r2.overhead.mean);
  EXPECT_EQ(r1.pattern_time.mean, r2.pattern_time.mean);

  // The same holds on the DES backend: a one-segment multi pattern on a
  // plain System is the DES's plain shape, so it keeps the VC DES's draws,
  // memoryless renewal and ties, under every law.
  for (const model::FailureDistSpec& law :
       {model::FailureDistSpec::exponential(),
        model::FailureDistSpec::weibull(0.7),
        model::FailureDistSpec::lognormal(1.2)}) {
    const System lawful = sys.with_failure_dist(law);
    DesProtocolSimulator vc_des(lawful, {20000.0, 256.0});
    SegmentedDesSimulator multi_des(lawful,
                                    core::SegmentedPattern{20000.0, 256.0, 1});
    rng::RngStream rc(43), rd(43);
    for (int i = 0; i < 200; ++i) {
      const PatternStats a = vc_des.simulate_pattern(rc);
      const PatternStats b = multi_des.simulate_pattern(rd);
      expect_same_stats(a, b);
      EXPECT_EQ(a.attempts, b.attempts) << law.to_string();
    }
    opt.backend = Backend::kDes;
    const ReplicationResult d1 =
        simulate_overhead(lawful, {20000.0, 256.0}, opt);
    const ReplicationResult d2 =
        simulate_segmented_overhead(lawful, {20000.0, 256.0, 1}, opt);
    EXPECT_EQ(d1.overhead.mean, d2.overhead.mean) << law.to_string();
    EXPECT_EQ(d1.pattern_time.mean, d2.pattern_time.mean) << law.to_string();
  }
}

TEST(SegmentedReduction, TwoLevelOneSegmentWithLEqualRIsTheVcPattern) {
  // With L = R a level-1 retry of the only segment is a VC rollback: the
  // same draws, the same wall time. Only the attempt counter differs
  // (a segment retry is not a pattern attempt).
  const model::System sys = make_system(2e-7, 0.4, 300.0, 30.0, 1800.0)
                                .with_shock({0.5, 0.05, {}, 3.0});
  const core::TwoLevelSystem two{sys, sys.costs().recovery};
  SegmentedFastSimulator vc(sys, core::Pattern{20000.0, 256.0});
  SegmentedFastSimulator level(two, {20000.0, 256.0, 1});
  rng::RngStream ra(43), rb(43);
  for (int i = 0; i < 200; ++i) {
    const PatternStats a = vc.simulate_pattern(ra);
    const PatternStats b = level.simulate_pattern(rb);
    expect_same_stats(a, b);
    EXPECT_EQ(a.shock_errors, b.shock_errors);
    EXPECT_GE(a.attempts, b.attempts);
  }
}

TEST(SegmentedPins, ShockWithTwoTierRecoveryIsBitStable) {
  // Hex-float pins of a correlated world (shock + two-tier recovery) on
  // both interpreters, generated before the correlated simulators were
  // folded into the segmented ones: correlated worlds keep their bits.
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS1)
          .with_lambda(2e-7)
          .with_shock({0.8, 0.002, {}, 4.0});
  const double p = 128.0;
  const core::Pattern pattern{core::optimal_period_first_order(sys, p), p};
  ASSERT_EQ(pattern.period, 0x1.f1cf2607190a2p+10);

  ReplicationOptions opt;
  opt.replicas = 16;
  opt.patterns_per_replica = 40;
  opt.seed = 0x5EED;
  const ReplicationResult fast = simulate_overhead(sys, pattern, opt);
  EXPECT_EQ(fast.overhead.mean, 0x1.071457cf9e92p-3);
  EXPECT_EQ(fast.pattern_time.mean, 0x1.2abaf6137f902p+11);
  EXPECT_EQ(fast.fail_stops_per_pattern, 0x1.8p-5);
  EXPECT_EQ(fast.shock_errors_per_pattern, 0x1.7333333333333p-5);
  EXPECT_EQ(fast.silent_detections_per_pattern, 0x1.3333333333333p-5);
  EXPECT_EQ(fast.masked_silent_per_pattern, 0x1.999999999999ap-10);
  EXPECT_EQ(fast.attempts_per_pattern, 0x1.159999999999ap+0);

  opt.backend = Backend::kDes;
  const ReplicationResult des = simulate_overhead(sys, pattern, opt);
  EXPECT_EQ(des.overhead.mean, 0x1.07e720952f786p-3);
  EXPECT_EQ(des.pattern_time.mean, 0x1.2baa4f448e1b8p+11);
  EXPECT_EQ(des.fail_stops_per_pattern, 0x1.4cccccccccccdp-5);
  EXPECT_EQ(des.shock_errors_per_pattern, 0x1.4p-5);
  EXPECT_EQ(des.silent_detections_per_pattern, 0x1.cp-5);
  EXPECT_EQ(des.masked_silent_per_pattern, 0.0);
  EXPECT_EQ(des.attempts_per_pattern, 0x1.18p+0);
}

// Hex-float pins of every segmented world under every law, on both
// interpreters: totals over 200 patterns plus the next stream word after
// them (so a draw consumed or skipped anywhere shows). Trace replay is not
// unit-samplable, so its rows pin the fast interpreter's full-draw path;
// the analytic laws pin the threshold-filtered one. Generated at commit
// 1f1269b, before the fast interpreter filtered its draws and before the
// DES moved off its event queue.
enum class World { kMulti2, kMulti3, kTwoLevel, kHetero, kShockPfs };
enum class Law { kExponential, kWeibull07, kWeibull15, kLognormal12, kTrace };

struct SegmentedPin {
  World world;
  Law law;
  Backend backend;
  double wall_time;
  std::uint64_t attempts;
  std::uint64_t fail_stops;
  std::uint64_t recovery_fail_stops;
  std::uint64_t silent_detections;
  std::uint64_t masked_silent;
  std::uint64_t shock_errors;
  std::uint64_t next_word;  ///< the stream's next word after the replica
};

model::FailureDistSpec pin_law(Law law) {
  switch (law) {
    case Law::kExponential: return model::FailureDistSpec::exponential();
    case Law::kWeibull07: return model::FailureDistSpec::weibull(0.7);
    case Law::kWeibull15: return model::FailureDistSpec::weibull(1.5);
    case Law::kLognormal12: return model::FailureDistSpec::lognormal(1.2);
    case Law::kTrace: break;
  }
  return model::FailureDistSpec::trace_replay(
      {300.0, 4000.0, 90000.0, 12000.0, 650.0});
}

/// One replica of 200 patterns (T=20000, P=256) of `world` under
/// `law_id` on interpreter `Sim`, at seed 42 and a per-case substream.
template <class Sim>
std::pair<PatternStats, std::uint64_t> run_pin(World world, Law law_id) {
  const model::FailureDistSpec law = pin_law(law_id);
  ResilienceCosts costs{CostModel::constant(300.0), CostModel::constant(300.0),
                        CostModel::constant(30.0)};
  const System base = System(FailureModel(3e-7, 0.4), costs, 1800.0,
                             Speedup::amdahl(0.1))
                          .with_failure_dist(law);
  constexpr double kT = 20000.0;
  constexpr double kP = 256.0;
  const auto finish = [&](Sim sim) {
    rng::RngStream rng(42, static_cast<std::uint64_t>(world) * 8 +
                               static_cast<std::uint64_t>(law_id));
    const PatternStats totals = sim.simulate_replica(rng, 200);
    return std::pair{totals, rng.next_u64()};
  };
  switch (world) {
    case World::kMulti2:
      return finish(Sim(base, core::SegmentedPattern{kT, kP, 2}));
    case World::kMulti3:
      return finish(Sim(base, core::SegmentedPattern{kT, kP, 3}));
    case World::kTwoLevel:
      return finish(Sim(core::TwoLevelSystem{base, CostModel::constant(60.0)},
                        core::SegmentedPattern{kT, kP, 3}));
    case World::kHetero: {
      model::HeterogeneousSpec hetero;
      hetero.groups = {{0.5, 1.6, law}, {0.5, 0.4, law}};
      return finish(
          Sim(base.with_heterogeneity(hetero), core::Pattern{kT, kP}));
    }
    case World::kShockPfs: {
      return finish(Sim(base.with_shock({0.6, 0.01, law, 4.0}),
                        core::Pattern{kT, kP}));
    }
  }
  std::abort();
}

constexpr SegmentedPin kSegmentedPins[] = {
  {World::kMulti2, Law::kExponential, Backend::kFast,
   0x1.94d7f9c938e2p+23, 980, 376, 7, 411, 57, 0, 0x2ccf8af2bddf6f0},
  {World::kMulti2, Law::kExponential, Backend::kDes,
   0x1.948b5c0853e66p+23, 969, 370, 11, 410, 56, 0, 0xe09b513f424292c7},
  {World::kMulti2, Law::kWeibull07, Backend::kFast,
   0x1.3b4d252bbc8e3p+24, 1849, 960, 70, 759, 230, 0, 0xf1885a9fd9ea881b},
  {World::kMulti2, Law::kWeibull07, Backend::kDes,
   0x1.59d17e38fb3b3p+24, 2022, 1085, 84, 821, 273, 0, 0xb6389da0f3d477ae},
  {World::kMulti2, Law::kWeibull15, Backend::kFast,
   0x1.0fbdf1819570ap+23, 569, 182, 2, 189, 15, 0, 0x2955004f21c27d3c},
  {World::kMulti2, Law::kWeibull15, Backend::kDes,
   0x1.1e8bca7c6310dp+23, 603, 185, 1, 219, 17, 0, 0xa344733fa00d2913},
  {World::kMulti2, Law::kLognormal12, Backend::kFast,
   0x1.30199b48e2607p+24, 1636, 756, 0, 680, 194, 0, 0x6cb134cb28973c41},
  {World::kMulti2, Law::kLognormal12, Backend::kDes,
   0x1.30abbb1bf9accp+24, 1623, 751, 0, 672, 178, 0, 0x3cffec4e31c729e1},
  {World::kMulti2, Law::kTrace, Backend::kFast,
   0x1.9651e5feab257p+25, 6203, 4166, 0, 1837, 1732, 0, 0x624ae44a96ca6094},
  {World::kMulti2, Law::kTrace, Backend::kDes,
   0x1.6f4cc6575ce96p+25, 5623, 3818, 0, 1605, 1646, 0, 0xfe0fabe120e60ee0},
  {World::kMulti3, Law::kExponential, Backend::kFast,
   0x1.6899408e936e7p+23, 907, 328, 5, 384, 50, 0, 0x4e7cee0ddac54708},
  {World::kMulti3, Law::kExponential, Backend::kDes,
   0x1.6e7c21e2ea4f1p+23, 944, 368, 3, 379, 49, 0, 0x3c6e8cbfb43d4fb8},
  {World::kMulti3, Law::kWeibull07, Backend::kFast,
   0x1.48b6cffbd443fp+24, 2156, 1021, 72, 1007, 199, 0, 0x2573a5f6b3becd1b},
  {World::kMulti3, Law::kWeibull07, Backend::kDes,
   0x1.6956cb4d00c1bp+24, 2380, 1180, 103, 1103, 220, 0, 0x3191c2085dffcb08},
  {World::kMulti3, Law::kWeibull15, Backend::kFast,
   0x1.d96f321721959p+22, 481, 151, 0, 130, 14, 0, 0x731cf643025f57cb},
  {World::kMulti3, Law::kWeibull15, Backend::kDes,
   0x1.c1d6dff31ab39p+22, 462, 135, 0, 127, 4, 0, 0x8bc4d93330956c4e},
  {World::kMulti3, Law::kLognormal12, Backend::kFast,
   0x1.2519255441cabp+24, 1692, 731, 2, 763, 128, 0, 0x26c80bbb7d3d0602},
  {World::kMulti3, Law::kLognormal12, Backend::kDes,
   0x1.3f7bb76ec758fp+24, 1832, 761, 1, 872, 141, 0, 0x9ba220cbdf8489a2},
  {World::kMulti3, Law::kTrace, Backend::kFast,
   0x1.82297bdf61b35p+26, 14234, 9058, 0, 4976, 3821, 0, 0x7ff476091d9f12f4},
  {World::kMulti3, Law::kTrace, Backend::kDes,
   0x1.7b23b918cd36ep+26, 13934, 8767, 0, 4967, 3660, 0, 0x4bd0378e1f17e61},
  {World::kTwoLevel, Law::kExponential, Backend::kFast,
   0x1.1040fb6196882p+23, 456, 256, 1, 309, 31, 0, 0xfb4abc90afcd8f05},
  {World::kTwoLevel, Law::kExponential, Backend::kDes,
   0x1.13100e1e3b96cp+23, 455, 256, 3, 311, 33, 0, 0x7a1a82f0760e904c},
  {World::kTwoLevel, Law::kWeibull07, Backend::kFast,
   0x1.a16dba1e38789p+23, 779, 599, 25, 641, 128, 0, 0xd6c141b09be50a49},
  {World::kTwoLevel, Law::kWeibull07, Backend::kDes,
   0x1.a447e3ab8f452p+23, 839, 663, 31, 613, 135, 0, 0x975f461ecf4a040e},
  {World::kTwoLevel, Law::kWeibull15, Backend::kFast,
   0x1.83d49a48bd83fp+22, 301, 101, 0, 121, 12, 0, 0x3122e6fd1b3c6e1f},
  {World::kTwoLevel, Law::kWeibull15, Backend::kDes,
   0x1.8526ad0b4a003p+22, 305, 107, 2, 118, 5, 0, 0xe1cea7d7fa7e9fb9},
  {World::kTwoLevel, Law::kLognormal12, Backend::kFast,
   0x1.72654cba81ba9p+23, 636, 436, 0, 477, 74, 0, 0x23154cb00b4e4627},
  {World::kTwoLevel, Law::kLognormal12, Backend::kDes,
   0x1.6c1dde6e0e34cp+23, 642, 442, 0, 456, 76, 0, 0xeef37392018da6d2},
  {World::kTwoLevel, Law::kTrace, Backend::kFast,
   0x1.db762ea98137cp+25, 5884, 5684, 0, 3202, 2419, 0, 0xa27ab5b1f59775eb},
  {World::kTwoLevel, Law::kTrace, Backend::kDes,
   0x1.d4b4dbf351954p+25, 5970, 5770, 0, 3065, 2350, 0, 0x206d48c04b3f4c3},
  {World::kHetero, Law::kExponential, Backend::kFast,
   0x1.d8b323bf241f1p+23, 962, 457, 6, 311, 138, 0, 0x76afbbe47b70eb47},
  {World::kHetero, Law::kExponential, Backend::kDes,
   0x1.faad9eeb80755p+23, 1037, 484, 5, 358, 136, 0, 0x9b981f34694bf1f2},
  {World::kHetero, Law::kWeibull07, Backend::kFast,
   0x1.419cff8825bb1p+24, 1598, 1118, 99, 379, 358, 0, 0x41fbef0eb5920c12},
  {World::kHetero, Law::kWeibull07, Backend::kDes,
   0x1.43db35d5145e8p+24, 1636, 1153, 100, 383, 358, 0, 0xf211f0017a5b12f7},
  {World::kHetero, Law::kWeibull15, Backend::kFast,
   0x1.47ba441b8a3efp+23, 580, 171, 0, 209, 52, 0, 0xc3fd0277bb905cf2},
  {World::kHetero, Law::kWeibull15, Backend::kDes,
   0x1.4fdcd591fdf0bp+23, 595, 164, 0, 231, 46, 0, 0x57f219bbaa93ff9f},
  {World::kHetero, Law::kLognormal12, Backend::kFast,
   0x1.7fc64c7a1be58p+24, 1634, 942, 0, 492, 406, 0, 0xed68e5f861323e9d},
  {World::kHetero, Law::kLognormal12, Backend::kDes,
   0x1.76137259b131ap+24, 1580, 893, 0, 487, 392, 0, 0xe974c69e6e784d23},
  {World::kHetero, Law::kTrace, Backend::kFast,
   0x1.1a39b1517752ep+25, 4303, 3281, 0, 822, 1400, 0, 0xd9c92438b8a34c04},
  {World::kHetero, Law::kTrace, Backend::kDes,
   0x1.1affa3fa9bfc8p+25, 4361, 3336, 0, 825, 1364, 0, 0x270259cac995771e},
  {World::kShockPfs, Law::kExponential, Backend::kFast,
   0x1.8cffbeebfff43p+23, 735, 237, 4, 302, 80, 86, 0x4b6cd76cb069d86},
  {World::kShockPfs, Law::kExponential, Backend::kDes,
   0x1.808187318da26p+23, 722, 228, 4, 298, 71, 99, 0xaa6950e1f13077db},
  {World::kShockPfs, Law::kWeibull07, Backend::kFast,
   0x1.1be84acd167ap+24, 1299, 761, 50, 388, 222, 312, 0xc7b730a61107756a},
  {World::kShockPfs, Law::kWeibull07, Backend::kDes,
   0x1.25e8fe8eb9e67p+24, 1317, 740, 58, 435, 230, 287, 0x724c8a0c8852548e},
  {World::kShockPfs, Law::kWeibull15, Backend::kFast,
   0x1.3983e1d16979ep+23, 523, 72, 0, 251, 22, 27, 0xe6c1b441388f0be1},
  {World::kShockPfs, Law::kWeibull15, Backend::kDes,
   0x1.24c9eb08dae42p+23, 494, 76, 0, 218, 18, 23, 0xb5999b30db67e821},
  {World::kShockPfs, Law::kLognormal12, Backend::kFast,
   0x1.1e6ba9ad6e095p+24, 1065, 425, 1, 441, 198, 138, 0x44e83a72e78f36c3},
  {World::kShockPfs, Law::kLognormal12, Backend::kDes,
   0x1.241cbe2942e5ap+24, 1074, 397, 1, 478, 180, 133, 0x463fb490ddc91696},
  {World::kShockPfs, Law::kTrace, Backend::kFast,
   0x1.6bcdf03c0dfd9p+25, 4691, 3960, 375, 906, 1856, 1352, 0x8bf2bfbad7a96bd9},
  {World::kShockPfs, Law::kTrace, Backend::kDes,
   0x1.4d37bdfc40d77p+25, 4382, 3691, 327, 818, 1671, 1243, 0xda0fb71466825832},
};

TEST(SegmentedPins, EveryWorldAndLawIsBitStableOnBothInterpreters) {
  constexpr const char* kWorld[] = {"multi n=2", "multi n=3", "two-level",
                                    "hetero", "shock+pfs"};
  for (const SegmentedPin& pin : kSegmentedPins) {
    const auto [totals, next_word] =
        pin.backend == Backend::kFast
            ? run_pin<SegmentedFastSimulator>(pin.world, pin.law)
            : run_pin<SegmentedDesSimulator>(pin.world, pin.law);
    const std::string label =
        std::string(kWorld[static_cast<int>(pin.world)]) + " " +
        pin_law(pin.law).to_string() +
        (pin.backend == Backend::kFast ? " fast" : " des");
    EXPECT_EQ(totals.wall_time, pin.wall_time) << label;
    EXPECT_EQ(totals.attempts, pin.attempts) << label;
    EXPECT_EQ(totals.fail_stop_errors, pin.fail_stops) << label;
    EXPECT_EQ(totals.recovery_fail_stops, pin.recovery_fail_stops) << label;
    EXPECT_EQ(totals.silent_detections, pin.silent_detections) << label;
    EXPECT_EQ(totals.masked_silent, pin.masked_silent) << label;
    EXPECT_EQ(totals.shock_errors, pin.shock_errors) << label;
    EXPECT_EQ(next_word, pin.next_word) << label;
  }
}

TEST(SegmentedBounds, MultiPathologicalRatesThrowInsteadOfHanging) {
  const System sys = make_system(1e-3, 0.5, 300.0, 30.0, 1800.0);
  const core::SegmentedPattern pattern{1e7, 4096.0, 4};
  SegmentedFastSimulator fast(sys, pattern);
  rng::RngStream rng(5);
  EXPECT_THROW((void)fast.simulate_pattern(rng), util::SimulationDiverged);
}

TEST(SegmentedBounds, SilentRetryStormThrowsInsteadOfHanging) {
  // Silent errors only, at a rate no segment survives: two-level retries
  // one segment forever unless the try bound stops it.
  const System base = make_system(1e-3, 0.0, 100.0, 10.0, 3600.0);
  const core::TwoLevelSystem sys = core::TwoLevelSystem::with_memory_level1(
      base);
  SegmentedFastSimulator fast(sys, {1e7, 4096.0, 2});
  rng::RngStream rng(7);
  EXPECT_THROW((void)fast.simulate_pattern(rng), util::SimulationDiverged);
}

TEST(SegmentedDes, MultiTraceTilesWallTime) {
  const System sys = make_system(2e-7, 0.5, 200.0, 20.0, 900.0);
  SegmentedDesSimulator des(sys, core::SegmentedPattern{15000.0, 256.0, 3});
  rng::RngStream rng(29);
  Trace trace;
  double clock = 0.0;
  PatternStats totals;
  for (int i = 0; i < 20; ++i) {
    const PatternStats s = des.simulate_pattern(rng, &trace, clock);
    clock += s.wall_time;
    totals.merge(s);
  }
  double sum = 0.0;
  for (const Segment& seg : trace.segments()) sum += seg.duration();
  EXPECT_NEAR(sum, totals.wall_time, 1e-6 * totals.wall_time);
  EXPECT_NEAR(trace.time_in(SegmentKind::kDowntime),
              static_cast<double>(totals.fail_stop_errors) * 900.0, 1e-6);
  // Three verifications and one checkpoint per completed pattern.
  EXPECT_GE(trace.time_in(SegmentKind::kVerify), 20.0 * 3.0 * 20.0 - 1e-9);
  EXPECT_GE(trace.time_in(SegmentKind::kCheckpoint), 20.0 * 200.0 - 1e-9);
}

TEST(SegmentedWorld, RefusesASharedVariatePool) {
  const System sys = make_system(2e-7, 0.5, 200.0, 20.0, 900.0);
  UnitVariatePool pool(sys.failure().dist(), 1);
  ReplicationOptions opt;
  opt.replicas = 2;
  opt.patterns_per_replica = 2;
  opt.seed = 1;
  opt.shared_units = &pool;
  EXPECT_THROW((void)simulate_segmented_overhead(sys, {15000.0, 256.0, 3}, opt),
               util::InvalidArgument);

  // Direct cursor hand-offs: only a plain VC world with unit-samplable
  // laws takes one.
  UnitVariatePool::Cursor cursor = pool.cursor(0);
  const core::Pattern vc{15000.0, 256.0};
  for (const model::FailureDistSpec& law :
       {model::FailureDistSpec::exponential(),
        model::FailureDistSpec::weibull(0.7),
        model::FailureDistSpec::lognormal(1.2)}) {
    SegmentedFastSimulator plain(sys.with_failure_dist(law), vc);
    EXPECT_NO_THROW(plain.set_unit_cursor(&cursor)) << law.to_string();
    EXPECT_NO_THROW(plain.set_unit_cursor(nullptr)) << law.to_string();
  }
  const auto refuses = [&](auto sim) {
    EXPECT_THROW(sim.set_unit_cursor(&cursor), util::InvalidArgument);
    EXPECT_NO_THROW(sim.set_unit_cursor(nullptr));
  };
  model::HeterogeneousSpec hetero;
  hetero.groups = {{0.5, 1.6, sys.failure().dist()},
                   {0.5, 0.4, sys.failure().dist()}};
  refuses(
      SegmentedFastSimulator(sys, core::SegmentedPattern{15000.0, 256.0, 2}));
  refuses(SegmentedFastSimulator(core::TwoLevelSystem::with_memory_level1(sys),
                                 {15000.0, 256.0, 2}));
  refuses(SegmentedFastSimulator(sys.with_shock({0.6, 0.05}), vc));
  refuses(SegmentedFastSimulator(sys.with_heterogeneity(hetero), vc));
  refuses(SegmentedFastSimulator(
      sys.with_failure_dist(
          model::FailureDistSpec::trace_replay({300.0, 4000.0, 650.0})),
      vc));

  // The DES takes a cursor on exactly the same worlds.
  for (const model::FailureDistSpec& law :
       {model::FailureDistSpec::exponential(),
        model::FailureDistSpec::weibull(0.7),
        model::FailureDistSpec::lognormal(1.2)}) {
    SegmentedDesSimulator plain(sys.with_failure_dist(law), vc);
    EXPECT_NO_THROW(plain.set_unit_cursor(&cursor)) << law.to_string();
    EXPECT_NO_THROW(plain.set_unit_cursor(nullptr)) << law.to_string();
  }
  refuses(
      SegmentedDesSimulator(sys, core::SegmentedPattern{15000.0, 256.0, 2}));
  refuses(SegmentedDesSimulator(core::TwoLevelSystem::with_memory_level1(sys),
                                {15000.0, 256.0, 2}));
  refuses(SegmentedDesSimulator(sys.with_shock({0.6, 0.05}), vc));
  refuses(SegmentedDesSimulator(sys.with_heterogeneity(hetero), vc));
  refuses(SegmentedDesSimulator(
      sys.with_failure_dist(
          model::FailureDistSpec::trace_replay({300.0, 4000.0, 650.0})),
      vc));
}

}  // namespace
}  // namespace ayd::sim
