#include "ayd/core/optimizer.hpp"

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

TEST(OptimalPeriod, IsALocalMinimumOfExactOverhead) {
  for (const auto& platform : model::all_platforms()) {
    for (const Scenario s : model::all_scenarios()) {
      const System sys = System::from_platform(platform, s);
      const double p = platform.measured_procs;
      const PeriodOptimum opt = optimal_period(sys, p);
      EXPECT_TRUE(opt.converged) << platform.name;
      EXPECT_FALSE(opt.at_boundary) << platform.name;
      const double h_star = pattern_overhead(sys, {opt.period, p});
      EXPECT_NEAR(h_star, opt.overhead, 1e-9 * h_star);
      for (const double factor : {0.5, 0.8, 1.25, 2.0}) {
        EXPECT_GT(pattern_overhead(sys, {opt.period * factor, p}), h_star)
            << platform.name << " scenario " << model::scenario_name(s)
            << " factor " << factor;
      }
    }
  }
}

TEST(OptimalPeriod, AgreesWithTheorem1Asymptoticallly) {
  // As λ → 0 the numerical optimum converges to the first-order period.
  const System base = System::from_platform(model::hera(), Scenario::kS3);
  double prev_gap = 1e9;
  for (const double lambda : {1e-8, 1e-10, 1e-12}) {
    const System sys = base.with_lambda(lambda);
    const double t_fo = optimal_period_first_order(sys, 512.0);
    const PeriodOptimum num = optimal_period(sys, 512.0);
    const double gap = std::abs(num.period - t_fo) / t_fo;
    EXPECT_LT(gap, prev_gap);
    prev_gap = gap;
  }
  EXPECT_LT(prev_gap, 1e-3);
}

TEST(OptimalPeriod, ErrorFreeHitsUpperBoundary) {
  const System sys(model::FailureModel::error_free(),
                   model::resolve(model::hera(), Scenario::kS3), 3600.0,
                   model::Speedup::amdahl(0.1));
  const PeriodOptimum opt = optimal_period(sys, 512.0);
  EXPECT_TRUE(opt.at_boundary);
  // Overhead tends to H(P) from above as T grows.
  EXPECT_NEAR(opt.overhead, sys.error_free_overhead(512.0),
              0.01 * opt.overhead);
}

TEST(OptimalAllocation, InteriorOptimumOnRealPlatforms) {
  for (const Scenario s :
       {Scenario::kS1, Scenario::kS2, Scenario::kS3, Scenario::kS4}) {
    const System sys = System::from_platform(model::hera(), s);
    const AllocationOptimum opt = optimal_allocation(sys);
    EXPECT_TRUE(opt.converged) << model::scenario_name(s);
    EXPECT_FALSE(opt.at_boundary) << model::scenario_name(s);
    EXPECT_GT(opt.procs, 1.0);
    EXPECT_LT(opt.procs, 1e6);
    // Joint optimality: perturbing P (with re-optimised T) can't help.
    const double h_star = opt.log_overhead;
    for (const double factor : {0.5, 2.0}) {
      const PeriodOptimum other =
          optimal_period(sys, opt.procs * factor);
      EXPECT_GT(other.log_overhead, h_star)
          << model::scenario_name(s) << " factor " << factor;
    }
  }
}

TEST(OptimalAllocation, IntegerRefinementReturnsWholeProcessors) {
  const System sys = System::from_platform(model::hera(), Scenario::kS1);
  const AllocationOptimum opt = optimal_allocation(sys);
  EXPECT_DOUBLE_EQ(opt.procs, std::floor(opt.procs));
  EXPECT_NEAR(opt.procs, opt.procs_continuous, 1.0);
}

TEST(OptimalAllocation, MatchesFirstOrderAtSmallLambda) {
  // At λ = 1e-12 the closed forms should match the numerical optimum to
  // well under a percent in overhead and a few percent in P*.
  for (const Scenario s : {Scenario::kS1, Scenario::kS3}) {
    const System sys =
        System::from_platform(model::hera(), s).with_lambda(1e-12);
    const FirstOrderSolution fo = solve_first_order(sys);
    ASSERT_TRUE(fo.has_optimum);
    AllocationSearchOptions opt;
    opt.max_procs = 1e9;
    const AllocationOptimum num = optimal_allocation(sys, opt);
    EXPECT_NEAR(num.procs, fo.procs, 0.05 * fo.procs)
        << model::scenario_name(s);
    EXPECT_NEAR(num.overhead, fo.overhead, 1e-3 * fo.overhead)
        << model::scenario_name(s);
  }
}

TEST(OptimalAllocation, Scenario6InteriorOptimumBeyondScenario5) {
  // First-order analysis (case 3) predicts no bounded optimum, but the
  // exact model has one (higher-order terms — notably downtime — grow
  // with P). The paper's Figure 2 shows scenario 6 with a *larger* P*
  // and *smaller* T* than scenario 5; reproduce that ordering.
  const System s5 = System::from_platform(model::hera(), Scenario::kS5);
  const System s6 = System::from_platform(model::hera(), Scenario::kS6);
  AllocationSearchOptions opt;
  opt.max_procs = 1e8;
  const AllocationOptimum o5 = optimal_allocation(s5, opt);
  const AllocationOptimum o6 = optimal_allocation(s6, opt);
  EXPECT_FALSE(o5.at_boundary);
  EXPECT_FALSE(o6.at_boundary);
  EXPECT_GT(o6.procs, o5.procs);
  EXPECT_LT(o6.period, o5.period);
}

TEST(OptimalAllocation, TightCapReportsBoundary) {
  // Cap the search well below the interior optimum: the optimiser must
  // flag the boundary instead of fabricating an interior solution.
  const System sys = System::from_platform(model::hera(), Scenario::kS6);
  AllocationSearchOptions opt;
  opt.max_procs = 64.0;
  const AllocationOptimum capped = optimal_allocation(sys, opt);
  EXPECT_TRUE(capped.at_boundary);
  EXPECT_NEAR(capped.procs_continuous, 64.0, 2.0);
}

TEST(OptimalAllocation, MoreReliableMeansMoreProcessors) {
  const System base = System::from_platform(model::hera(), Scenario::kS1);
  AllocationSearchOptions opt;
  opt.max_procs = 1e9;
  double prev = 0.0;
  for (const double lambda : {1e-8, 1e-9, 1e-10}) {
    const AllocationOptimum o =
        optimal_allocation(base.with_lambda(lambda), opt);
    EXPECT_GT(o.procs, prev) << "lambda=" << lambda;
    prev = o.procs;
  }
}

TEST(OptimalAllocation, InnerPeriodBoundaryPropagatesToTheJointResult) {
  // At λ = 1e-30 the period optimum sqrt(2C/λ_P) of C = cP lies beyond
  // kMaxPeriod at every P, so every inner search stops on the period
  // domain's edge, while P stays interior (C/T grows with P). The joint
  // result sits on a domain edge and must say so — not report a
  // converged interior optimum.
  const System sys =
      System::from_platform(model::hera(), Scenario::kS1).with_lambda(1e-30);
  AllocationSearchOptions opt;
  opt.max_procs = 1e9;
  const AllocationOptimum capped = optimal_allocation(sys, opt);
  EXPECT_TRUE(capped.at_boundary);
  // It is the inner search that hit the edge at the reported P, not P
  // running out of room.
  const PeriodOptimum inner = optimal_period(sys, capped.procs);
  EXPECT_TRUE(inner.at_boundary);
  EXPECT_NEAR(capped.period, kMaxPeriod, 1e-6 * kMaxPeriod);
  EXPECT_GT(capped.procs, 10.0);
  EXPECT_LT(capped.procs, opt.max_procs / 10.0);
}

TEST(OptimalAllocation, InvalidDomainRejected) {
  // The search runs over [1, max_procs].
  const System sys = System::from_platform(model::hera(), Scenario::kS1);
  AllocationSearchOptions opt;
  opt.max_procs = 1.0;
  EXPECT_THROW((void)optimal_allocation(sys, opt), util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::core
