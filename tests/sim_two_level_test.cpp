// Tests of the two-level protocol simulator: deterministic error-free
// accounting, agreement with the exact expectation, reduction to the base
// fast sampler at n = 1, and the error-telemetry invariants.

#include "ayd/sim/two_level_protocol.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "ayd/core/expected_time.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"

namespace ayd::sim {
namespace {

using core::TwoLevelPattern;
using core::TwoLevelSystem;
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

TEST(TwoLevelSim, ErrorFreePatternIsExact) {
  const System base = make_system(0.0, 0.0, 120.0, 10.0, 3600.0);
  const TwoLevelSystem sys{base, CostModel::constant(4.0)};
  TwoLevelSimulator simulator(sys, {9000.0, 64.0, 3});
  rng::RngStream rng(1);
  const PatternStats s = simulator.simulate_pattern(rng);
  // 3 segments x (3000 + 10) + 2 level-1 checkpoints + 1 level-2.
  EXPECT_DOUBLE_EQ(s.wall_time, 9000.0 + 30.0 + 8.0 + 120.0);
  EXPECT_EQ(s.attempts, 1u);
  EXPECT_EQ(s.fail_stop_errors, 0u);
  EXPECT_EQ(s.silent_detections, 0u);
}

TEST(TwoLevelSim, MatchesExactExpectation) {
  const System base = make_system(2e-7, 0.35, 250.0, 20.0, 900.0);
  const TwoLevelSystem sys = TwoLevelSystem::with_memory_level1(base);
  const TwoLevelPattern pat{20000.0, 256.0, 4};
  const double expected = core::expected_two_level_time(sys, pat);

  ReplicationOptions opt;
  opt.replicas = 60;
  opt.patterns_per_replica = 80;
  opt.seed = 42;
  const ReplicationResult r = simulate_two_level_overhead(sys, pat, opt);
  const double z = (r.pattern_time.mean - expected) /
                   std::max(r.pattern_time.stderr_mean, 1e-12);
  EXPECT_LT(std::abs(z), 4.0)
      << "simulated " << r.pattern_time.mean << " expected " << expected;
  EXPECT_NEAR(r.analytic_pattern_time, expected, 1e-12 * expected);
}

TEST(TwoLevelSim, OneSegmentMatchesBaseFastSampler) {
  // n = 1 with L1 = R reproduces the base protocol's distribution; the
  // two samplers' means must agree statistically, and the analytic
  // prediction must match Proposition 1 exactly.
  const System base = make_system(1e-7, 0.4, 300.0, 30.0, 1800.0);
  const TwoLevelSystem sys{base, base.costs().recovery};
  const TwoLevelPattern pat{20000.0, 256.0, 1};

  const double prop1 = core::expected_pattern_time(base, {20000.0, 256.0});
  EXPECT_NEAR(core::expected_two_level_time(sys, pat), prop1,
              1e-9 * prop1);

  ReplicationOptions opt;
  opt.replicas = 50;
  opt.patterns_per_replica = 60;
  opt.seed = 7;
  const ReplicationResult r = simulate_two_level_overhead(sys, pat, opt);
  const double z = (r.pattern_time.mean - prop1) /
                   std::max(r.pattern_time.stderr_mean, 1e-12);
  EXPECT_LT(std::abs(z), 4.0);
}

TEST(TwoLevelSim, SilentOnlyNeverRestartsPattern) {
  // f = 0: silent errors retry single segments via level-1 recovery; the
  // pattern-level attempt counter must stay at one per pattern.
  const System base = make_system(3e-8, 0.0, 100.0, 10.0, 3600.0);
  const TwoLevelSystem sys = TwoLevelSystem::with_memory_level1(base);
  TwoLevelSimulator simulator(sys, {30000.0, 512.0, 5});
  rng::RngStream rng(11);
  PatternStats totals;
  for (int i = 0; i < 200; ++i) totals.merge(simulator.simulate_pattern(rng));
  EXPECT_EQ(totals.attempts, 200u);
  EXPECT_EQ(totals.fail_stop_errors, 0u);
  EXPECT_GT(totals.silent_detections, 0u);
}

TEST(TwoLevelSim, SilentRollbackIsCheaperWithMoreSegments) {
  // At a fixed T on a silent-dominated system, the simulated wall time
  // falls as segments are added (the analytic property, observed).
  const System base = make_system(4e-8, 0.1, 1000.0, 5.0, 600.0);
  const TwoLevelSystem sys{base, CostModel::constant(5.0)};
  ReplicationOptions opt;
  opt.replicas = 40;
  opt.patterns_per_replica = 50;
  opt.seed = 3;
  const ReplicationResult one =
      simulate_two_level_overhead(sys, {40000.0, 512.0, 1}, opt);
  const ReplicationResult eight =
      simulate_two_level_overhead(sys, {40000.0, 512.0, 8}, opt);
  EXPECT_LT(eight.overhead.mean, one.overhead.mean);
}

TEST(TwoLevelSim, DeterministicGivenSeed) {
  const System base = make_system(1e-7, 0.4, 300.0, 30.0, 1800.0);
  const TwoLevelSystem sys = TwoLevelSystem::with_memory_level1(base);
  TwoLevelSimulator a(sys, {20000.0, 256.0, 4});
  TwoLevelSimulator b(sys, {20000.0, 256.0, 4});
  rng::RngStream ra(99), rb(99);
  for (int i = 0; i < 50; ++i) {
    const PatternStats sa = a.simulate_pattern(ra);
    const PatternStats sb = b.simulate_pattern(rb);
    EXPECT_DOUBLE_EQ(sa.wall_time, sb.wall_time);
    EXPECT_EQ(sa.silent_detections, sb.silent_detections);
  }
}

TEST(TwoLevelSim, WallTimeNeverBelowFaultFreeFloor) {
  const System base = make_system(2e-7, 0.3, 150.0, 15.0, 600.0);
  const TwoLevelSystem sys{base, CostModel::constant(6.0)};
  TwoLevelSimulator simulator(sys, {10000.0, 128.0, 5});
  rng::RngStream rng(3);
  const double floor = 10000.0 + 5.0 * 15.0 + 4.0 * 6.0 + 150.0;
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(simulator.simulate_pattern(rng).wall_time, floor);
  }
}

TEST(TwoLevelDes, ErrorFreePatternIsExact) {
  const System base = make_system(0.0, 0.0, 120.0, 10.0, 3600.0);
  const TwoLevelSystem sys{base, CostModel::constant(4.0)};
  SegmentedDesSimulator simulator(sys, {9000.0, 64.0, 3});
  rng::RngStream rng(1);
  const PatternStats s = simulator.simulate_pattern(rng);
  EXPECT_DOUBLE_EQ(s.wall_time, 9000.0 + 30.0 + 8.0 + 120.0);
  EXPECT_EQ(s.attempts, 1u);
}

TEST(TwoLevelDes, AgreesWithFastSamplerStatistically) {
  // Same distribution, independent implementations: the replicated means
  // from the two back-ends must agree within combined standard errors.
  const System base = make_system(2e-7, 0.35, 250.0, 20.0, 900.0);
  const TwoLevelSystem sys = TwoLevelSystem::with_memory_level1(base);
  const TwoLevelPattern pat{20000.0, 256.0, 4};

  ReplicationOptions fast_opt;
  fast_opt.replicas = 50;
  fast_opt.patterns_per_replica = 60;
  fast_opt.seed = 17;
  fast_opt.backend = Backend::kFast;
  ReplicationOptions des_opt = fast_opt;
  des_opt.seed = 18;  // independent draws
  des_opt.backend = Backend::kDes;

  const ReplicationResult fast = simulate_two_level_overhead(sys, pat,
                                                             fast_opt);
  const ReplicationResult des = simulate_two_level_overhead(sys, pat,
                                                            des_opt);
  const double se = std::sqrt(
      fast.pattern_time.stderr_mean * fast.pattern_time.stderr_mean +
      des.pattern_time.stderr_mean * des.pattern_time.stderr_mean);
  EXPECT_LT(std::abs(fast.pattern_time.mean - des.pattern_time.mean),
            5.0 * se);
}

TEST(TwoLevelDes, TraceTilesWallTimeAndCountsDowntime) {
  const System base = make_system(2e-7, 0.5, 200.0, 20.0, 900.0);
  const TwoLevelSystem sys = TwoLevelSystem::with_memory_level1(base);
  SegmentedDesSimulator simulator(sys, {15000.0, 256.0, 3});
  rng::RngStream rng(23);
  Trace trace;
  double clock = 0.0;
  PatternStats totals;
  for (int i = 0; i < 20; ++i) {
    const PatternStats s = simulator.simulate_pattern(rng, &trace, clock);
    clock += s.wall_time;
    totals.merge(s);
  }
  double sum = 0.0;
  for (const Segment& seg : trace.segments()) sum += seg.duration();
  EXPECT_NEAR(sum, totals.wall_time, 1e-6 * totals.wall_time);
  EXPECT_NEAR(trace.time_in(SegmentKind::kDowntime),
              static_cast<double>(totals.fail_stop_errors) * 900.0, 1e-6);
  // Every pattern ends with a successful level-2 checkpoint and each
  // completed segment wrote one, so checkpoint time is at least
  // patterns * (2*L1 + C2).
  EXPECT_GE(trace.time_in(SegmentKind::kCheckpoint),
            20.0 * (2.0 * 20.0 + 200.0) - 1e-9);
}

TEST(TwoLevelDes, SilentRetryStaysWithinSegment) {
  // f = 0 and n = 2: every silent error triggers an L1 recovery traced as
  // kRecovery of length L1; no downtime should ever appear.
  const System base = make_system(3e-8, 0.0, 100.0, 10.0, 3600.0);
  const TwoLevelSystem sys{base, CostModel::constant(7.0)};
  SegmentedDesSimulator simulator(sys, {30000.0, 512.0, 2});
  rng::RngStream rng(31);
  Trace trace;
  double clock = 0.0;
  PatternStats totals;
  for (int i = 0; i < 100; ++i) {
    const PatternStats s = simulator.simulate_pattern(rng, &trace, clock);
    clock += s.wall_time;
    totals.merge(s);
  }
  EXPECT_EQ(totals.fail_stop_errors, 0u);
  EXPECT_GT(totals.silent_detections, 0u);
  EXPECT_DOUBLE_EQ(trace.time_in(SegmentKind::kDowntime), 0.0);
  EXPECT_NEAR(trace.time_in(SegmentKind::kRecovery),
              static_cast<double>(totals.silent_detections) * 7.0, 1e-6);
}

TEST(TwoLevelSim, PathologicalRatesThrowInsteadOfHanging) {
  const System base = make_system(1e-3, 0.5, 300.0, 30.0, 1800.0);
  const TwoLevelSystem sys = TwoLevelSystem::with_memory_level1(base);
  TwoLevelSimulator simulator(sys, {1e7, 4096.0, 2});
  rng::RngStream rng(5);
  EXPECT_THROW((void)simulator.simulate_pattern(rng),
               util::SimulationDiverged);
}

}  // namespace
}  // namespace ayd::sim
