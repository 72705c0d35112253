// Tests of the segmented-pattern interpreters (sim/segmented.hpp): the
// n = 1 reductions to the VC pattern, hex-float pins of a correlated
// world, divergence bounds, and the DES trace of a multi-verification
// pattern.

#include "ayd/sim/segmented.hpp"

#include <gtest/gtest.h>

#include "ayd/core/first_order.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/sim/multi_protocol.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/sim/two_level_protocol.hpp"
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
  MultiVerifSimulator multi(sys, core::MultiPattern{20000.0, 256.0, 1});
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
      simulate_multi_overhead(sys, {20000.0, 256.0, 1}, opt);
  EXPECT_EQ(r1.overhead.mean, r2.overhead.mean);
  EXPECT_EQ(r1.pattern_time.mean, r2.pattern_time.mean);
}

TEST(SegmentedReduction, TwoLevelOneSegmentWithLEqualRIsTheVcPattern) {
  // With L = R a level-1 retry of the only segment is a VC rollback: the
  // same draws, the same wall time. Only the attempt counter differs
  // (a segment retry is not a pattern attempt).
  model::System sys = make_system(2e-7, 0.4, 300.0, 30.0, 1800.0)
                          .with_shock({0.5, 0.05});
  sys = sys.with_two_tier(
      model::TwoTierCostSpec::from_penalty(sys.costs(), 3.0));
  const core::TwoLevelSystem two{sys, sys.costs().recovery};
  SegmentedFastSimulator vc(sys, core::Pattern{20000.0, 256.0});
  TwoLevelSimulator level(two, {20000.0, 256.0, 1});
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
  model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS1)
          .with_lambda(2e-7)
          .with_shock({0.8, 0.002});
  sys = sys.with_two_tier(
      model::TwoTierCostSpec::from_penalty(sys.costs(), 4.0));
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

TEST(SegmentedBounds, MultiPathologicalRatesThrowInsteadOfHanging) {
  const System sys = make_system(1e-3, 0.5, 300.0, 30.0, 1800.0);
  const core::MultiPattern pattern{1e7, 4096.0, 4};
  MultiVerifSimulator fast(sys, pattern);
  rng::RngStream rng(5);
  EXPECT_THROW((void)fast.simulate_pattern(rng), util::SimulationDiverged);
}

TEST(SegmentedBounds, SilentRetryStormThrowsInsteadOfHanging) {
  // Silent errors only, at a rate no segment survives: two-level retries
  // one segment forever unless the try bound stops it.
  const System base = make_system(1e-3, 0.0, 100.0, 10.0, 3600.0);
  const core::TwoLevelSystem sys = core::TwoLevelSystem::with_memory_level1(
      base);
  TwoLevelSimulator fast(sys, {1e7, 4096.0, 2});
  rng::RngStream rng(7);
  EXPECT_THROW((void)fast.simulate_pattern(rng), util::SimulationDiverged);
}

TEST(SegmentedDes, MultiTraceTilesWallTime) {
  const System sys = make_system(2e-7, 0.5, 200.0, 20.0, 900.0);
  SegmentedDesSimulator des(sys, core::MultiPattern{15000.0, 256.0, 3});
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
  EXPECT_THROW((void)simulate_multi_overhead(sys, {15000.0, 256.0, 3}, opt),
               util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::sim
