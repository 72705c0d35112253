// Backend equivalence: the fast closed-form sampler and the event-queue
// reference simulator sample the same stochastic process, so their
// replicated overhead estimates must agree within the normal-theory CI
// half-widths. Exercised on scenarios with different cost structures and
// on a silent-dominated platform (Atlas), where a divergence in the
// silent-error handling would show up first. Non-exponential failure
// distributions share the same renewal points across the backends (a
// fresh arrival per attempt and per recovery try), so the agreement must
// hold for Weibull / lognormal / trace-replay arrivals too — only the
// comparison against the exponential analytic prediction drops out.

#include "ayd/sim/runner.hpp"

#include <cmath>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "ayd/core/first_order.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/sim/multi_protocol.hpp"
#include "ayd/sim/two_level_protocol.hpp"

namespace ayd::sim {
namespace {

ReplicationOptions options(Backend backend) {
  ReplicationOptions opt;
  opt.replicas = 60;
  opt.patterns_per_replica = 80;
  opt.seed = 0xA4D2016ULL;
  opt.backend = backend;
  return opt;
}

void expect_backends_agree_on(const model::System& sys,
                              const std::string& label) {
  // Fixed allocation; the period still comes from the exponential
  // first-order planner (the pattern only has to be identical across the
  // backends, not optimal for the distribution).
  const double p = 512.0;
  const core::Pattern pattern{core::optimal_period_first_order(sys, p), p};

  const ReplicationResult fast =
      simulate_overhead(sys, pattern, options(Backend::kFast));
  const ReplicationResult des =
      simulate_overhead(sys, pattern, options(Backend::kDes));

  // The two estimates are independent draws of the same mean; their
  // difference should be within the combined 95% half-widths (a ~3-sigma
  // criterion, loose enough to be deterministic at this fixed seed).
  const double tolerance =
      fast.overhead.ci.half_width() + des.overhead.ci.half_width();
  EXPECT_NEAR(fast.overhead.mean, des.overhead.mean, tolerance) << label;
}

void expect_backends_agree(const model::Platform& platform,
                           model::Scenario scenario) {
  const model::System sys = model::System::from_platform(platform, scenario);
  const double procs = platform.measured_procs;
  const core::Pattern pattern{
      core::optimal_period_first_order(sys, procs), procs};

  const ReplicationResult fast =
      simulate_overhead(sys, pattern, options(Backend::kFast));
  const ReplicationResult des =
      simulate_overhead(sys, pattern, options(Backend::kDes));

  // The two estimates are independent draws of the same mean; their
  // difference should be within the combined 95% half-widths (a ~3-sigma
  // criterion, loose enough to be deterministic at this fixed seed).
  const double tolerance =
      fast.overhead.ci.half_width() + des.overhead.ci.half_width();
  EXPECT_NEAR(fast.overhead.mean, des.overhead.mean, tolerance)
      << platform.name << " scenario "
      << model::scenario_name(scenario);

  // Both must also sit near the analytic prediction.
  EXPECT_NEAR(fast.overhead.mean, fast.analytic_overhead,
              4.0 * fast.overhead.stderr_mean + 1e-3);
  EXPECT_NEAR(des.overhead.mean, des.analytic_overhead,
              4.0 * des.overhead.stderr_mean + 1e-3);
}

TEST(BackendEquivalence, HeraScenario1LinearCheckpointCost) {
  expect_backends_agree(model::hera(), model::Scenario::kS1);
}

TEST(BackendEquivalence, HeraScenario3ConstantCost) {
  expect_backends_agree(model::hera(), model::Scenario::kS3);
}

TEST(BackendEquivalence, AtlasScenario5SilentDominatedInMemory) {
  expect_backends_agree(model::atlas(), model::Scenario::kS5);
}

TEST(BackendEquivalence, WeibullBurstyArrivals) {
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS1)
          .with_failure_dist(model::FailureDistSpec::weibull(0.7));
  expect_backends_agree_on(sys, "hera S1 weibull k=0.7");
}

TEST(BackendEquivalence, WeibullWearOutArrivalsSilentDominated) {
  const model::System sys =
      model::System::from_platform(model::atlas(), model::Scenario::kS5)
          .with_failure_dist(model::FailureDistSpec::weibull(1.5));
  expect_backends_agree_on(sys, "atlas S5 weibull k=1.5");
}

TEST(BackendEquivalence, LogNormalArrivals) {
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::lognormal(1.2));
  expect_backends_agree_on(sys, "hera S3 lognormal sigma=1.2");
}

TEST(BackendEquivalence, TraceReplayArrivals) {
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::trace_replay(
              {300.0, 960.0, 55.0, 7200.0, 1800.0, 120.0, 86400.0, 600.0},
              "synthetic"));
  expect_backends_agree_on(sys, "hera S3 trace replay");
}

TEST(BackendEquivalence, ErrorFreeSystemIsDeterministicOnBothBackends) {
  // Regression for the lambda == 0 path: with no failures the wall time
  // is exactly n * (T + V + C) on both backends, for any distribution
  // shape (the degenerate distribution never schedules an arrival).
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS3)
          .with_lambda(0.0)
          .with_failure_dist(model::FailureDistSpec::weibull(0.7));
  const double p = 256.0;
  const core::Pattern pattern{10000.0, p};
  const double expected_pattern_time =
      10000.0 + sys.verification_cost(p) + sys.checkpoint_cost(p);

  for (const Backend backend : {Backend::kFast, Backend::kDes}) {
    const ReplicationResult r =
        simulate_overhead(sys, pattern, options(backend));
    EXPECT_NEAR(r.pattern_time.mean, expected_pattern_time,
                1e-9 * expected_pattern_time);
    EXPECT_EQ(r.fail_stops_per_pattern, 0.0);
    EXPECT_EQ(r.attempts_per_pattern, 1.0);
    EXPECT_FALSE(std::isnan(r.overhead.mean));
  }
}

// Correlated worlds route to the segmented interpreters
// (sim/segmented.hpp); the same CI-agreement criterion holds them
// together across all three extension axes.
TEST(BackendEquivalence, CorrelatedShockArrivals) {
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS1)
          .with_shock({0.4, 0.05});
  ASSERT_TRUE(sys.extended());
  expect_backends_agree_on(sys, "hera S1 shock rho=0.4 g=0.05");
}

TEST(BackendEquivalence, CorrelatedHeterogeneousComponents) {
  model::HeterogeneousSpec hetero;
  hetero.groups = {{0.25, 3.0, model::FailureDistSpec::weibull(0.7)},
                   {0.75, 1.0 / 3.0, {}}};
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS3)
          .with_heterogeneity(hetero);
  ASSERT_TRUE(sys.extended());
  expect_backends_agree_on(sys, "hera S3 hetero 0.25*3*weibull");
}

TEST(BackendEquivalence, CorrelatedShockWithTwoTierRecovery) {
  model::System sys =
      model::System::from_platform(model::atlas(), model::Scenario::kS5)
          .with_shock({0.5, 0.1});
  sys = sys.with_two_tier(
      model::TwoTierCostSpec::from_penalty(sys.costs(), 8.0));
  ASSERT_TRUE(sys.extended());
  ASSERT_TRUE(sys.extension()->two_tier.has_value());
  expect_backends_agree_on(sys, "atlas S5 shock rho=0.5 pfs_penalty=8");
}

// Degeneracy pins, backend by backend: a degenerate extension must not
// merely be statistically close to the plain system — it must normalize
// away at construction and reproduce the plain simulators' streams
// bitwise.
TEST(BackendEquivalence, DegenerateExtensionsReproducePlainWorldBitwise) {
  const model::System plain =
      model::System::from_platform(model::hera(), model::Scenario::kS1);
  const double p = 512.0;
  const core::Pattern pattern{core::optimal_period_first_order(plain, p), p};

  // rho = 0 shock, single x1 group, and an equal-tier cost spec each
  // collapse to a non-extended System...
  const model::System no_shock = plain.with_shock({0.0, 0.05});
  model::HeterogeneousSpec uniform;
  uniform.groups = {{1.0, 1.0, plain.failure().dist()}};
  const model::System no_hetero = plain.with_heterogeneity(uniform);
  const model::System no_tier = plain.with_two_tier(
      model::TwoTierCostSpec::from_penalty(plain.costs(), 1.0));
  EXPECT_FALSE(no_shock.extended());
  EXPECT_FALSE(no_hetero.extended());
  EXPECT_FALSE(no_tier.extended());

  // ...so every backend runs the plain bit-pinned path: identical seeds
  // give byte-identical estimates, not merely CI-compatible ones.
  for (const Backend backend : {Backend::kFast, Backend::kDes}) {
    const ReplicationResult ref =
        simulate_overhead(plain, pattern, options(backend));
    for (const model::System* sys : {&no_shock, &no_hetero, &no_tier}) {
      const ReplicationResult got =
          simulate_overhead(*sys, pattern, options(backend));
      EXPECT_EQ(got.overhead.mean, ref.overhead.mean);
      EXPECT_EQ(got.pattern_time.mean, ref.pattern_time.mean);
      EXPECT_EQ(got.fail_stops_per_pattern, ref.fail_stops_per_pattern);
      EXPECT_EQ(got.shock_errors_per_pattern, 0.0);
    }
  }
}

TEST(BackendEquivalence, ShockTelemetryMatchesAcrossBackends) {
  // Failure-prone configuration: shocks vs individual events occur at
  // rho/(1-rho) / (gP) — small g and modest P keep the shock stream a
  // large share of the interruptions, and the raised lambda gives the
  // fixed-size replication enough events to measure.
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS1)
          .with_lambda(1e-8)
          .with_shock({0.6, 0.01});
  const double p = 64.0;
  const core::Pattern pattern{core::optimal_period_first_order(sys, p), p};

  const ReplicationResult fast =
      simulate_overhead(sys, pattern, options(Backend::kFast));
  const ReplicationResult des =
      simulate_overhead(sys, pattern, options(Backend::kDes));

  // Shocks occur on both backends at compatible per-pattern rates, and
  // never exceed the total fail-stop count.
  EXPECT_GT(fast.shock_errors_per_pattern, 0.0);
  EXPECT_GT(des.shock_errors_per_pattern, 0.0);
  EXPECT_LE(fast.shock_errors_per_pattern, fast.fail_stops_per_pattern);
  EXPECT_LE(des.shock_errors_per_pattern, des.fail_stops_per_pattern);
  EXPECT_NEAR(fast.shock_errors_per_pattern, des.shock_errors_per_pattern,
              0.25 * (fast.shock_errors_per_pattern +
                      des.shock_errors_per_pattern) +
                  0.01);
}

// Multi-verification and two-level patterns run the segmented
// interpreters on every law and world; the same CI-agreement criterion
// holds fast and DES together on each combination.
void expect_segmented_backends_agree(bool two_level) {
  const std::pair<const char*, model::FailureDistSpec> laws[] = {
      {"exponential", model::FailureDistSpec::exponential()},
      {"weibull k=0.7", model::FailureDistSpec::weibull(0.7)},
      {"lognormal sigma=1.2", model::FailureDistSpec::lognormal(1.2)}};
  model::HeterogeneousSpec hetero;
  hetero.groups = {{0.25, 3.0, model::FailureDistSpec::weibull(0.7)},
                   {0.75, 1.0 / 3.0, {}}};
  for (const auto& [law_name, law] : laws) {
    const model::System plain =
        model::System::from_platform(model::hera(), model::Scenario::kS3)
            .with_failure_dist(law);
    const model::System shock = plain.with_shock({0.4, 0.05});
    const std::pair<const char*, model::System> worlds[] = {
        {"plain", plain},
        {"shock", shock},
        {"hetero", plain.with_heterogeneity(hetero)},
        {"shock+two-tier",
         shock.with_two_tier(
             model::TwoTierCostSpec::from_penalty(plain.costs(), 8.0))}};
    for (const auto& [world_name, sys] : worlds) {
      const double p = 512.0;
      const double period = core::optimal_period_first_order(sys, p);
      ReplicationResult fast, des;
      if (two_level) {
        const auto two = core::TwoLevelSystem::with_memory_level1(sys);
        fast = simulate_two_level_overhead(two, {period, p, 3},
                                           options(Backend::kFast));
        des = simulate_two_level_overhead(two, {period, p, 3},
                                          options(Backend::kDes));
      } else {
        fast = simulate_multi_overhead(sys, {period, p, 3},
                                       options(Backend::kFast));
        des = simulate_multi_overhead(sys, {period, p, 3},
                                      options(Backend::kDes));
      }
      EXPECT_NEAR(fast.overhead.mean, des.overhead.mean,
                  fast.overhead.ci.half_width() + des.overhead.ci.half_width())
          << law_name << " " << world_name;
    }
  }
}

TEST(BackendEquivalence, MultiVerificationOnEveryLawAndWorld) {
  expect_segmented_backends_agree(/*two_level=*/false);
}

TEST(BackendEquivalence, TwoLevelOnEveryLawAndWorld) {
  expect_segmented_backends_agree(/*two_level=*/true);
}

TEST(BackendEquivalence, TelemetryRatesMatchAcrossBackends) {
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS1);
  const double procs = model::hera().measured_procs;
  const core::Pattern pattern{
      core::optimal_period_first_order(sys, procs), procs};

  const ReplicationResult fast =
      simulate_overhead(sys, pattern, options(Backend::kFast));
  const ReplicationResult des =
      simulate_overhead(sys, pattern, options(Backend::kDes));

  EXPECT_EQ(fast.total_patterns, des.total_patterns);
  // Error processes are parameter-identical; per-pattern rates must agree
  // to within a loose sampling tolerance.
  EXPECT_NEAR(fast.fail_stops_per_pattern, des.fail_stops_per_pattern,
              0.25 * (fast.fail_stops_per_pattern +
                      des.fail_stops_per_pattern) +
                  0.01);
  EXPECT_NEAR(fast.silent_detections_per_pattern,
              des.silent_detections_per_pattern,
              0.25 * (fast.silent_detections_per_pattern +
                      des.silent_detections_per_pattern) +
                  0.01);
}

}  // namespace
}  // namespace ayd::sim
