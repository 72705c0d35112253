// Property-based tests: invariants of the model, the optimisers and the
// simulator over randomly generated (but reproducible) system
// configurations, swept with parameterised gtest.

#include <cmath>
#include <gtest/gtest.h>

#include "ayd/core/expected_time.hpp"
#include "ayd/core/first_order.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/overhead.hpp"
#include "ayd/core/segmented.hpp"
#include "ayd/math/special.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/sim/runner.hpp"

#include "support/core_reference.hpp"

namespace ayd {
namespace {

using core::Pattern;
using model::CostModel;
using model::FailureModel;
using model::ResilienceCosts;
using model::Speedup;
using model::System;

/// Deterministic random system drawn from wide but sane parameter ranges.
struct RandomConfig {
  System sys;
  Pattern pattern;
};

RandomConfig draw_config(std::uint64_t index) {
  rng::RngStream r(0xC0FFEE, index);
  double lambda = std::pow(10.0, r.next_uniform(-10.0, -6.0));
  const double f = r.next_uniform(0.0, 1.0);
  // Random cost shapes: each coefficient present with probability 1/2,
  // at least one nonzero overall.
  const auto draw_cost = [&r](double scale) {
    double a = r.next_bernoulli(0.5) ? r.next_uniform(1.0, scale) : 0.0;
    const double b =
        r.next_bernoulli(0.5) ? r.next_uniform(10.0, 100.0 * scale) : 0.0;
    const double c = r.next_bernoulli(0.3) ? r.next_uniform(0.01, 1.0) : 0.0;
    if (a == 0.0 && b == 0.0 && c == 0.0) a = scale;
    return CostModel(a, b, c);
  };
  const CostModel checkpoint = draw_cost(500.0);
  const CostModel verification =
      CostModel(r.next_uniform(0.5, 50.0), r.next_uniform(0.0, 1000.0), 0.0);
  const double downtime = r.next_uniform(0.0, 7200.0);
  const double alpha = std::pow(10.0, r.next_uniform(-4.0, -0.5));
  const double procs = std::floor(std::pow(10.0, r.next_uniform(0.5, 3.5)));
  const double period = std::pow(10.0, r.next_uniform(2.0, 5.0));

  // Feasibility guard: clamp the total error exposure of one attempt,
  // λ_P·(T + V + C + R), into [0.2, 1.5] by rescaling λ. The upper bound
  // keeps the expected number of re-executions O(1) — the paper's
  // operating regime — so the simulation property finishes quickly. The
  // lower bound guarantees error events actually occur in a ~10^3-pattern
  // run; below it the sample variance of a simulation is zero (every
  // pattern is fault-free) and no finite run can measure the formula's
  // rare-event mass. The extreme-rate regimes are covered analytically by
  // the dedicated core tests.
  const double attempt_span = period + verification.cost(procs) +
                              2.0 * checkpoint.cost(procs);
  const double exposure = lambda * procs * attempt_span;
  if (exposure > 1.5) lambda *= 1.5 / exposure;
  if (exposure < 0.2) lambda *= 0.2 / exposure;

  const System sys(FailureModel(lambda, f),
                   ResilienceCosts{checkpoint, checkpoint, verification},
                   downtime, Speedup::amdahl(alpha));
  return {sys, Pattern{period, procs}};
}

class SystemProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SystemProperties, ExpectedTimeExceedsFaultFreeTime) {
  const auto [sys, pattern] = draw_config(GetParam());
  const double floor = pattern.period +
                       sys.verification_cost(pattern.procs) +
                       sys.checkpoint_cost(pattern.procs);
  EXPECT_GE(core::expected_pattern_time(sys, pattern), floor);
}

TEST_P(SystemProperties, CompositionMatchesClosedForm) {
  const auto [sys, pattern] = draw_config(GetParam());
  const double a = core::expected_pattern_time(sys, pattern);
  const double b = core::expected_pattern_time_direct(sys, pattern);
  if (std::isfinite(a) && std::isfinite(b)) {
    EXPECT_LT(math::rel_diff(a, b), 1e-8);
  }
}

TEST_P(SystemProperties, LogFormMatchesLinearForm) {
  const auto [sys, pattern] = draw_config(GetParam());
  const double e = core::expected_pattern_time(sys, pattern);
  if (!std::isfinite(e)) GTEST_SKIP();
  EXPECT_NEAR(core::log_expected_pattern_time(sys, pattern), std::log(e),
              1e-9);
}

TEST_P(SystemProperties, ExpectedTimeMonotoneInPeriod) {
  const auto [sys, pattern] = draw_config(GetParam());
  const double e1 = core::expected_pattern_time(sys, pattern);
  const double e2 = core::expected_pattern_time(
      sys, {pattern.period * 1.5, pattern.procs});
  if (std::isfinite(e1) && std::isfinite(e2)) {
    EXPECT_GT(e2, e1);
  }
}

TEST_P(SystemProperties, OverheadExceedsErrorFreeOverhead) {
  const auto [sys, pattern] = draw_config(GetParam());
  // H(T,P) > H(P): resilience always costs something.
  EXPECT_GT(core::pattern_overhead(sys, pattern),
            sys.error_free_overhead(pattern.procs));
}

TEST_P(SystemProperties, OptimalPeriodBeatsNeighbours) {
  const auto [sys, pattern] = draw_config(GetParam());
  const core::PeriodOptimum opt = core::optimal_period(sys, pattern.procs);
  if (opt.at_boundary) GTEST_SKIP();
  const double h = opt.log_overhead;
  EXPECT_LE(h, core::log_pattern_overhead(
                   sys, {opt.period * 1.3, pattern.procs}) + 1e-12);
  EXPECT_LE(h, core::log_pattern_overhead(
                   sys, {opt.period / 1.3, pattern.procs}) + 1e-12);
}

TEST_P(SystemProperties, FirstOrderPeriodNearNumericalOptimum) {
  const auto [sys, pattern] = draw_config(GetParam());
  const double t_fo = core::optimal_period_first_order(sys, pattern.procs);
  if (!std::isfinite(t_fo)) GTEST_SKIP();
  // Theorem 1 is a first-order result: only claim accuracy inside its
  // validity regime (λ-weighted exposure of the optimal period small).
  const double exposure = (sys.fail_stop_rate(pattern.procs) / 2.0 +
                           sys.silent_rate(pattern.procs)) *
                          t_fo;
  if (exposure > 0.3) GTEST_SKIP();
  const core::PeriodOptimum num = core::optimal_period(sys, pattern.procs);
  if (num.at_boundary) GTEST_SKIP();
  // Overheads (not periods) are the robust comparison: H is flat near T*.
  const double h_fo =
      core::pattern_overhead(sys, {t_fo, pattern.procs});
  EXPECT_LT((h_fo - num.overhead) / num.overhead, 0.05);
}

TEST_P(SystemProperties, SimulationAgreesWithFormula) {
  const auto [sys, pattern] = draw_config(GetParam());
  const double expected = core::expected_pattern_time(sys, pattern);
  if (!std::isfinite(expected)) GTEST_SKIP();
  sim::ReplicationOptions opt;
  opt.replicas = 24;
  opt.patterns_per_replica = 40;
  opt.seed = GetParam() * 7919 + 13;
  const sim::ReplicationResult r = sim::simulate_overhead(sys, pattern, opt);
  const double z = (r.pattern_time.mean - expected) /
                   std::max(r.pattern_time.stderr_mean, 1e-12 * expected);
  EXPECT_LT(std::abs(z), 6.0) << "simulated " << r.pattern_time.mean
                              << " expected " << expected;
}

TEST_P(SystemProperties, TwoLevelReducesToBaseAtOneSegment) {
  // With n = 1 and the level-1 recovery priced like the base recovery,
  // the two-level expectation must coincide with Proposition 1 on every
  // random configuration.
  const auto [sys, pattern] = draw_config(GetParam());
  const core::TwoLevelSystem two{sys, sys.costs().recovery};
  const double base = core::expected_pattern_time(sys, pattern);
  if (!std::isfinite(base)) GTEST_SKIP();
  const double reduced = core::expected_segmented_time(
      two, {pattern.period, pattern.procs, 1});
  EXPECT_LT(math::rel_diff(base, reduced), 1e-9);
}

TEST_P(SystemProperties, TwoLevelExceedsFaultFreeFloor) {
  const auto [sys, pattern] = draw_config(GetParam());
  const core::TwoLevelSystem two =
      core::TwoLevelSystem::with_memory_level1(sys);
  for (const int n : {1, 3, 8}) {
    const double p = pattern.procs;
    const double floor =
        pattern.period + n * sys.verification_cost(p) +
        (n - 1) * two.level1_cost(p) + sys.checkpoint_cost(p);
    const double e = core::expected_segmented_time(
        two, {pattern.period, pattern.procs, n});
    if (std::isfinite(e)) {
      EXPECT_GE(e, floor - 1e-9 * floor) << "n=" << n;
    }
  }
}

TEST_P(SystemProperties, TwoLevelSimulationAgreesWithFormula) {
  const auto [sys, pattern] = draw_config(GetParam());
  const core::TwoLevelSystem two =
      core::TwoLevelSystem::with_memory_level1(sys);
  const core::SegmentedPattern pat{pattern.period, pattern.procs, 3};
  const double expected = core::expected_segmented_time(two, pat);
  if (!std::isfinite(expected)) GTEST_SKIP();
  sim::ReplicationOptions opt;
  opt.replicas = 24;
  opt.patterns_per_replica = 40;
  opt.seed = GetParam() * 6151 + 29;
  const sim::ReplicationResult r =
      sim::simulate_segmented_overhead(two, pat, opt);
  const double z = (r.pattern_time.mean - expected) /
                   std::max(r.pattern_time.stderr_mean, 1e-12 * expected);
  EXPECT_LT(std::abs(z), 6.0) << "simulated " << r.pattern_time.mean
                              << " expected " << expected;
}

TEST_P(SystemProperties, ZeroShockRateReproducesIidStreamBitwise) {
  // rho = 0 normalizes away at construction: the "extended" system is
  // the plain system, takes the plain bit-pinned simulators, and
  // reproduces their streams bitwise — not just in distribution.
  const auto [sys, pattern] = draw_config(GetParam());
  const System with = sys.with_shock({0.0, 0.1});
  EXPECT_FALSE(with.extended());
  sim::ReplicationOptions opt;
  opt.replicas = 8;
  opt.patterns_per_replica = 20;
  opt.seed = GetParam() * 7919 + 13;
  const sim::ReplicationResult a = sim::simulate_overhead(sys, pattern, opt);
  const sim::ReplicationResult b = sim::simulate_overhead(with, pattern, opt);
  EXPECT_EQ(a.overhead.mean, b.overhead.mean);
  EXPECT_EQ(a.pattern_time.mean, b.pattern_time.mean);
  EXPECT_EQ(a.fail_stops_per_pattern, b.fail_stops_per_pattern);
  EXPECT_EQ(b.shock_errors_per_pattern, 0.0);
}

TEST_P(SystemProperties, HomogeneousEquivalentGroupsCollapseBitwise) {
  // Identical per-component specs merge into one class (the platform
  // process is defined per distinct class), and a single x1 class at the
  // base law is no extension at all — again a bitwise reproduction.
  const auto [sys, pattern] = draw_config(GetParam());
  model::HeterogeneousSpec hetero;
  hetero.groups = {{0.25, 1.0, sys.failure().dist()},
                   {0.5, 1.0, sys.failure().dist()},
                   {0.25, 1.0, sys.failure().dist()}};
  const System with = sys.with_heterogeneity(hetero);
  EXPECT_FALSE(with.extended());
  sim::ReplicationOptions opt;
  opt.replicas = 8;
  opt.patterns_per_replica = 20;
  opt.seed = GetParam() * 6151 + 29;
  const sim::ReplicationResult a = sim::simulate_overhead(sys, pattern, opt);
  const sim::ReplicationResult b = sim::simulate_overhead(with, pattern, opt);
  EXPECT_EQ(a.overhead.mean, b.overhead.mean);
  EXPECT_EQ(a.pattern_time.mean, b.pattern_time.mean);
}

TEST_P(SystemProperties, UnshockedPfsPenaltyFoldsToSingleTier) {
  // Only a shock rollback takes the PFS path, so a PFS penalty on a
  // rho = 0 shock drops with the shock: the system keeps its own C and R
  // and stays non-extended.
  const auto [sys, pattern] = draw_config(GetParam());
  const System with = sys.with_shock({0.0, 0.05, {}, 4.0});
  EXPECT_FALSE(with.extended());
  const double p = pattern.procs;
  EXPECT_EQ(with.checkpoint_cost(p), sys.checkpoint_cost(p));
  EXPECT_EQ(with.recovery_cost(p), sys.recovery_cost(p));
  EXPECT_EQ(with.verification_cost(p), sys.verification_cost(p));
  sim::ReplicationOptions opt;
  opt.replicas = 8;
  opt.patterns_per_replica = 20;
  opt.seed = GetParam() * 4231 + 7;
  const sim::ReplicationResult a = sim::simulate_overhead(sys, pattern, opt);
  const sim::ReplicationResult b = sim::simulate_overhead(with, pattern, opt);
  EXPECT_EQ(a.overhead.mean, b.overhead.mean);
  EXPECT_EQ(a.pattern_time.mean, b.pattern_time.mean);
}

INSTANTIATE_TEST_SUITE_P(RandomConfigs, SystemProperties,
                         ::testing::Range<std::uint64_t>(0, 24));

}  // namespace
}  // namespace ayd
