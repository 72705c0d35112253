#include "ayd/core/expected_time.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <tuple>

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

/// A hand-built system with explicit rates/costs for formula checks.
System make_system(double lambda, double f, double c, double r, double v,
                   double d, double alpha = 0.1) {
  ResilienceCosts costs{CostModel::constant(c), CostModel::constant(r),
                        CostModel::constant(v)};
  return System(FailureModel(lambda, f), costs, d, Speedup::amdahl(alpha));
}

TEST(ExpectedTime, ErrorFreeIsJustTheWork) {
  const System sys = make_system(0.0, 0.0, 120.0, 120.0, 30.0, 3600.0);
  const Pattern p{5000.0, 64.0};
  EXPECT_DOUBLE_EQ(expected_pattern_time(sys, p), 5000.0 + 30.0 + 120.0);
  EXPECT_DOUBLE_EQ(expected_pattern_time_direct(sys, p),
                   5000.0 + 30.0 + 120.0);
}

TEST(ExpectedTime, SilentOnlyClosedForm) {
  // λf = 0: E = e^{λs·T}(T+V) + (e^{λs·T} − 1)·R + C. (Geometric number of
  // attempts at success probability e^{-λs·T}.)
  const double lambda = 3e-6;
  const System sys = make_system(lambda, 0.0, 100.0, 100.0, 20.0, 3600.0);
  const Pattern p{10000.0, 50.0};
  const double ls = sys.silent_rate(50.0);
  const double b = std::exp(ls * 10000.0);
  const double expected = b * (10000.0 + 20.0) + (b - 1.0) * 100.0 + 100.0;
  EXPECT_NEAR(expected_pattern_time(sys, p), expected, expected * 1e-12);
}

TEST(ExpectedTime, FailStopOnlyClosedForm) {
  // λs = 0: E = (1/λf + D)·e^{λf·R}·(e^{λf(T+V+C)} − 1), the classical
  // fail-stop expectation with work T+V+C.
  const double lambda = 2e-6;
  const System sys = make_system(lambda, 1.0, 150.0, 150.0, 10.0, 600.0);
  const Pattern p{20000.0, 32.0};
  const double lf = sys.fail_stop_rate(32.0);
  const double expected = (1.0 / lf + 600.0) * std::exp(lf * 150.0) *
                          std::expm1(lf * (20000.0 + 10.0 + 150.0));
  EXPECT_NEAR(expected_pattern_time(sys, p), expected, expected * 1e-12);
}

TEST(ExpectedTime, ZeroDowntimeStillWorks) {
  const System sys = make_system(1e-6, 0.5, 100.0, 100.0, 10.0, 0.0);
  const Pattern p{5000.0, 100.0};
  const double e = expected_pattern_time(sys, p);
  EXPECT_GT(e, 5110.0);
  EXPECT_TRUE(std::isfinite(e));
}

TEST(ExpectedTime, AlwaysAtLeastTheFaultFreeTime) {
  const model::Platform platform = model::hera();
  for (const model::Scenario s : model::all_scenarios()) {
    const System sys = System::from_platform(platform, s);
    for (const double t : {100.0, 3000.0, 50000.0}) {
      for (const double p : {64.0, 512.0, 4096.0}) {
        const Pattern pat{t, p};
        const double floor =
            t + sys.verification_cost(p) + sys.checkpoint_cost(p);
        EXPECT_GE(expected_pattern_time(sys, pat), floor)
            << "scenario " << model::scenario_name(s) << " T=" << t
            << " P=" << p;
      }
    }
  }
}

TEST(ExpectedTime, MonotoneInPeriod) {
  const System sys =
      System::from_platform(model::hera(), model::Scenario::kS1);
  double prev = expected_pattern_time(sys, {100.0, 512.0});
  for (const double t : {200.0, 1000.0, 5000.0, 20000.0, 100000.0}) {
    const double cur = expected_pattern_time(sys, {t, 512.0});
    EXPECT_GT(cur, prev) << "T=" << t;
    prev = cur;
  }
}

TEST(ExpectedTime, MonotoneInDowntime) {
  const System base = make_system(1e-6, 0.5, 100.0, 100.0, 10.0, 0.0);
  const Pattern p{10000.0, 256.0};
  double prev = expected_pattern_time(base, p);
  for (const double d : {600.0, 3600.0, 7200.0}) {
    const double cur = expected_pattern_time(base.with_downtime(d), p);
    EXPECT_GT(cur, prev) << "D=" << d;
    prev = cur;
  }
}

TEST(ExpectedTime, MonotoneInErrorRate) {
  const System base = make_system(1e-8, 0.3, 100.0, 100.0, 10.0, 3600.0);
  const Pattern p{10000.0, 256.0};
  double prev = expected_pattern_time(base, p);
  for (const double lambda : {1e-7, 1e-6, 1e-5}) {
    const double cur = expected_pattern_time(base.with_lambda(lambda), p);
    EXPECT_GT(cur, prev) << "lambda=" << lambda;
    prev = cur;
  }
}

TEST(ExpectedTime, DowntimeIrrelevantWithoutFailStop) {
  const System a = make_system(1e-6, 0.0, 100.0, 100.0, 10.0, 0.0);
  const System b = make_system(1e-6, 0.0, 100.0, 100.0, 10.0, 7200.0);
  const Pattern p{10000.0, 256.0};
  EXPECT_DOUBLE_EQ(expected_pattern_time(a, p), expected_pattern_time(b, p));
}

// Stable composition vs. the verbatim Prop.-1 closed form, across the
// whole (platform × scenario) grid at several pattern shapes.
class FormulaIdentity
    : public ::testing::TestWithParam<std::tuple<int, model::Scenario>> {};

TEST_P(FormulaIdentity, CompositionMatchesDirectClosedForm) {
  const model::Platform platform =
      model::all_platforms()[static_cast<std::size_t>(
          std::get<0>(GetParam()))];
  const System sys = System::from_platform(platform, std::get<1>(GetParam()));
  for (const double t : {50.0, 1000.0, 20000.0, 300000.0}) {
    for (const double p : {16.0, 512.0, 8192.0}) {
      const Pattern pat{t, p};
      const double a = expected_pattern_time(sys, pat);
      const double b = expected_pattern_time_direct(sys, pat);
      EXPECT_NEAR(a, b, 1e-9 * b) << "T=" << t << " P=" << p;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FormulaIdentity,
    ::testing::Combine(::testing::Range(0, 4),
                       ::testing::ValuesIn(model::all_scenarios())));

TEST(LogExpectedTime, MatchesLinearWhenFinite) {
  const System sys =
      System::from_platform(model::coastal(), model::Scenario::kS3);
  for (const double t : {100.0, 10000.0}) {
    for (const double p : {64.0, 2048.0}) {
      const Pattern pat{t, p};
      EXPECT_NEAR(log_expected_pattern_time(sys, pat),
                  std::log(expected_pattern_time(sys, pat)), 1e-12);
    }
  }
}

TEST(LogExpectedTime, FiniteInOverflowRegime) {
  // P = 1e12 with a linear checkpoint cost: λf·C_P alone is astronomical;
  // linear space overflows but the log form must stay finite and ordered.
  const System sys =
      System::from_platform(model::hera(), model::Scenario::kS1);
  const Pattern huge{1e6, 1e12};
  EXPECT_TRUE(std::isinf(expected_pattern_time(sys, huge)));
  const double log_e = log_expected_pattern_time(sys, huge);
  EXPECT_TRUE(std::isfinite(log_e));
  EXPECT_GT(log_e, 700.0);  // beyond double exp range, as expected
  // Still monotone in T out there.
  EXPECT_GT(log_expected_pattern_time(sys, {2e6, 1e12}), log_e);
}

TEST(LogExpectedTime, FiniteForSilentOnlyOverflow) {
  const System sys = make_system(1e-4, 0.0, 10.0, 10.0, 1.0, 0.0);
  const Pattern pat{1e9, 1e5};  // λs·T ~ 1e10
  EXPECT_TRUE(std::isinf(expected_pattern_time(sys, pat)));
  const double log_e = log_expected_pattern_time(sys, pat);
  EXPECT_TRUE(std::isfinite(log_e));
  const double ls = sys.silent_rate(1e5);
  EXPECT_NEAR(log_e, ls * 1e9 + std::log(1e9 + 1.0 + 10.0), 1e-6);
}

TEST(ExpectedTime, InvalidPatternsRejected) {
  const System sys = make_system(1e-6, 0.5, 100.0, 100.0, 10.0, 3600.0);
  EXPECT_THROW((void)expected_pattern_time(sys, {0.0, 10.0}),
               util::InvalidArgument);
  EXPECT_THROW((void)expected_pattern_time(sys, {-5.0, 10.0}),
               util::InvalidArgument);
  EXPECT_THROW((void)expected_pattern_time(sys, {100.0, 0.5}),
               util::InvalidArgument);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)expected_pattern_time(sys, {nan, 10.0}),
               util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::core
