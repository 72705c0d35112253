#include "ayd/core/baselines.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "ayd/core/first_order.hpp"
#include "ayd/core/overhead.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"

namespace ayd::core {
namespace {

using model::Scenario;
using model::System;

TEST(FailStopOnly, PreservesFailStopRateDropsSilent) {
  const System sys = System::from_platform(model::hera(), Scenario::kS3);
  const System blind = fail_stop_only_system(sys);
  for (const double p : {64.0, 512.0, 4096.0}) {
    EXPECT_DOUBLE_EQ(blind.fail_stop_rate(p), sys.fail_stop_rate(p));
    EXPECT_DOUBLE_EQ(blind.silent_rate(p), 0.0);
  }
  // Costs and downtime untouched.
  EXPECT_DOUBLE_EQ(blind.checkpoint_cost(512.0), sys.checkpoint_cost(512.0));
  EXPECT_DOUBLE_EQ(blind.downtime(), sys.downtime());
}

TEST(SilentBlind, PeriodIsYoungDalyStyle) {
  const System sys = System::from_platform(model::hera(), Scenario::kS3);
  const double p = 512.0;
  const double lf = sys.fail_stop_rate(p);
  const double vc = sys.resilience_cost(p);
  EXPECT_NEAR(silent_blind_period(sys, p), std::sqrt(vc / (lf / 2.0)),
              1e-9 * silent_blind_period(sys, p));
}

TEST(SilentBlind, OverestimatesThePeriod) {
  // Ignoring silent errors means underestimating the error rate, hence a
  // longer-than-optimal period — on every platform (they all have s > 0).
  for (const auto& platform : model::all_platforms()) {
    const System sys = System::from_platform(platform, Scenario::kS3);
    const double p = platform.measured_procs;
    EXPECT_GT(silent_blind_period(sys, p),
              optimal_period_first_order(sys, p))
        << platform.name;
  }
}

TEST(SilentBlind, CostsRealOverheadUnderBothErrorSources) {
  // Planning blind and executing in the real (two-error) world must be
  // strictly worse than the VC optimum.
  const System sys = System::from_platform(model::hera(), Scenario::kS3);
  const double p = 512.0;
  const double t_blind = silent_blind_period(sys, p);
  const PeriodOptimum vc = optimal_period(sys, p);
  const double h_blind = pattern_overhead(sys, {t_blind, p});
  EXPECT_GT(h_blind, vc.overhead);
}

TEST(JinRelaxation, AgreesWithNestedOptimiser) {
  for (const Scenario s : {Scenario::kS1, Scenario::kS3, Scenario::kS5}) {
    const System sys = System::from_platform(model::hera(), s);
    const JinRelaxationResult jin = jin_relaxation(sys);
    EXPECT_TRUE(jin.converged) << model::scenario_name(s);
    AllocationSearchOptions opt;
    opt.refine_integer = false;
    const AllocationOptimum nested = optimal_allocation(sys, opt);
    EXPECT_NEAR(jin.overhead, nested.overhead, 1e-4 * nested.overhead)
        << model::scenario_name(s);
    EXPECT_NEAR(jin.procs, nested.procs_continuous,
                0.02 * nested.procs_continuous)
        << model::scenario_name(s);
  }
}

TEST(JinRelaxation, ReportsRounds) {
  const System sys = System::from_platform(model::hera(), Scenario::kS1);
  const JinRelaxationResult r = jin_relaxation(sys);
  EXPECT_GE(r.rounds, 1);
  EXPECT_LE(r.rounds, 100);
}

}  // namespace
}  // namespace ayd::core
