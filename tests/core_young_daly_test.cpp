#include "ayd/core/young_daly.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "ayd/core/first_order.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/overhead.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/model/system.hpp"
#include "ayd/util/error.hpp"

#include "support/core_reference.hpp"

namespace ayd::core {
namespace {

using model::CostModel;
using model::FailureModel;
using model::ResilienceCosts;
using model::Speedup;
using model::System;

TEST(Young, Formula) {
  EXPECT_DOUBLE_EQ(young_period(3600.0, 50.0), std::sqrt(2.0 * 3600.0 * 50.0));
  EXPECT_DOUBLE_EQ(young_period(1e6, 0.0), 0.0);
}

TEST(Young, OverheadFormula) {
  EXPECT_DOUBLE_EQ(young_overhead(3600.0, 50.0),
                   std::sqrt(2.0 * 50.0 / 3600.0));
}

TEST(Daly, ReducesToYoungForSmallCost) {
  // For C << μ, Daly's correction terms vanish relative to sqrt(2μC).
  const double mu = 1e8;
  const double c = 10.0;
  EXPECT_NEAR(daly_period(mu, c), young_period(mu, c),
              0.01 * young_period(mu, c));
}

TEST(Daly, CorrectionShortensThePeriod) {
  // The -C term dominates the positive series corrections for moderate
  // C/μ, so Daly < Young there.
  const double mu = 3600.0;
  const double c = 100.0;
  EXPECT_LT(daly_period(mu, c), young_period(mu, c));
}

TEST(Daly, SaturatesAtMtbf) {
  EXPECT_DOUBLE_EQ(daly_period(100.0, 1000.0), 100.0);
  EXPECT_DOUBLE_EQ(daly_period(100.0, 200.0), 100.0);
}

TEST(YoungDaly, Preconditions) {
  EXPECT_THROW((void)young_period(0.0, 10.0), util::InvalidArgument);
  EXPECT_THROW((void)young_period(100.0, -1.0), util::InvalidArgument);
  EXPECT_THROW((void)daly_period(-5.0, 10.0), util::InvalidArgument);
}

// The headline reduction: the paper's Theorem 1 collapses to Young's
// formula when silent errors, verification, and downtime are switched
// off — "When Amdahl meets Young/Daly".
TEST(Reduction, Theorem1ReducesToYoungWithoutSilentErrors) {
  const double lambda_ind = 1e-8;
  const double procs = 512.0;
  const double checkpoint = 300.0;
  const ResilienceCosts costs{CostModel::constant(checkpoint),
                              CostModel::constant(checkpoint),
                              CostModel::zero()};
  const System sys(FailureModel(lambda_ind, /*f=*/1.0), costs,
                   /*downtime=*/0.0, Speedup::amdahl(0.1));
  const double t_vc = optimal_period_first_order(sys, procs);
  const double platform_mtbf = 1.0 / (lambda_ind * procs);
  EXPECT_NEAR(t_vc, young_period(platform_mtbf, checkpoint), 1e-9 * t_vc);
}

TEST(Reduction, NumericalOptimumNearYoungDalyForFailStopOnly) {
  const double lambda_ind = 1e-9;
  const double procs = 1000.0;
  const double checkpoint = 120.0;
  const ResilienceCosts costs{CostModel::constant(checkpoint),
                              CostModel::constant(checkpoint),
                              CostModel::zero()};
  const System sys(FailureModel(lambda_ind, 1.0), costs, 0.0,
                   Speedup::amdahl(0.05));
  const double platform_mtbf = 1.0 / (lambda_ind * procs);
  const PeriodOptimum num = optimal_period(sys, procs);
  const double t_young = young_period(platform_mtbf, checkpoint);
  const double t_daly = daly_period(platform_mtbf, checkpoint);
  // Young's first-order formula is within a couple percent; Daly's
  // higher-order one is closer still.
  EXPECT_NEAR(num.period, t_young, 0.03 * t_young);
  EXPECT_LT(std::abs(num.period - t_daly), std::abs(num.period - t_young));
}

TEST(DalyVc, ReducesToDalyWithoutSilentErrors) {
  // With f = 1 and no verification cost, daly_period_vc must equal the
  // classical Daly formula with mu = platform MTBF and C the checkpoint.
  const double lambda_ind = 2e-9;
  const double procs = 800.0;
  const double checkpoint = 250.0;
  const ResilienceCosts costs{CostModel::constant(checkpoint),
                              CostModel::constant(checkpoint),
                              CostModel::zero()};
  const System sys(FailureModel(lambda_ind, 1.0), costs, 0.0,
                   Speedup::amdahl(0.1));
  const double platform_mtbf = 1.0 / (lambda_ind * procs);
  EXPECT_NEAR(daly_period_vc(sys, procs),
              daly_period(platform_mtbf, checkpoint),
              1e-9 * daly_period(platform_mtbf, checkpoint));
}

TEST(DalyVc, BeatsFirstOrderOnEveryPlatformScenario) {
  // The higher-order period must achieve an exact overhead at least as
  // close to the numerical optimum as Theorem 1's period, on all 24
  // platform x scenario pairs.
  for (const auto& platform : model::all_platforms()) {
    for (const auto scenario : model::all_scenarios()) {
      const System sys = System::from_platform(platform, scenario);
      const double p = platform.measured_procs;
      const double t1 = optimal_period_first_order(sys, p);
      const double td = daly_period_vc(sys, p);
      const PeriodOptimum num = optimal_period(sys, p);
      const double gap1 = pattern_overhead(sys, {t1, p}) - num.overhead;
      const double gapd = pattern_overhead(sys, {td, p}) - num.overhead;
      EXPECT_GE(gap1, -1e-12);
      EXPECT_GE(gapd, -1e-12);
      EXPECT_LE(gapd, gap1) << platform.name << " s"
                            << model::scenario_number(scenario);
    }
  }
}

TEST(DalyVc, LargeExposureFallsBackToMtbf) {
  // When the resilience cost exceeds the mean error interval the series
  // is invalid; Daly's fallback is T = mu (here 1/Lambda).
  const ResilienceCosts costs{CostModel::constant(5e5),
                              CostModel::constant(5e5),
                              CostModel::zero()};
  const System sys(FailureModel(1e-6, 1.0), costs, 0.0,
                   Speedup::amdahl(0.1));
  const double rate = sys.fail_stop_rate(100.0) / 2.0;
  EXPECT_DOUBLE_EQ(daly_period_vc(sys, 100.0), 1.0 / rate);
}

TEST(DalyVc, ErrorFreeNeverCheckpoints) {
  const ResilienceCosts costs{CostModel::constant(100.0),
                              CostModel::constant(100.0),
                              CostModel::zero()};
  const System sys(FailureModel::error_free(), costs, 0.0,
                   Speedup::amdahl(0.1));
  EXPECT_TRUE(std::isinf(daly_period_vc(sys, 100.0)));
}

TEST(Reduction, SilentErrorsShortenThePeriod) {
  // (f/2 + s) > f'/2 whenever some errors are silent at equal total rate:
  // silent errors waste the whole period, so the optimal period shrinks.
  const double lambda = 1e-8;
  const ResilienceCosts costs{CostModel::constant(300.0),
                              CostModel::constant(300.0),
                              CostModel::constant(15.0)};
  const System all_fail_stop(FailureModel(lambda, 1.0), costs, 0.0,
                             Speedup::amdahl(0.1));
  const System mostly_silent(FailureModel(lambda, 0.2), costs, 0.0,
                             Speedup::amdahl(0.1));
  EXPECT_LT(optimal_period_first_order(mostly_silent, 512.0),
            optimal_period_first_order(all_fail_stop, 512.0));
}

}  // namespace
}  // namespace ayd::core
