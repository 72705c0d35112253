#include "ayd/stats/summary.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "ayd/util/error.hpp"

namespace ayd::stats {
namespace {

TEST(NormalQuantileStats, StandardValues) {
  EXPECT_NEAR(normal_quantile(0.975), 1.96, 0.001);
  EXPECT_NEAR(normal_quantile(0.995), 2.576, 0.001);
}

TEST(MeanCi, WidthMatchesLevel) {
  const auto ci95 = mean_ci(10.0, 0.5, 0.95);
  EXPECT_NEAR(ci95.lo, 10.0 - 1.96 * 0.5, 0.01);
  EXPECT_NEAR(ci95.hi, 10.0 + 1.96 * 0.5, 0.01);
  EXPECT_TRUE(ci95.contains(10.0));
  const auto ci99 = mean_ci(10.0, 0.5, 0.99);
  EXPECT_GT(ci99.half_width(), ci95.half_width());
}

TEST(MeanCi, RejectsBadInput) {
  EXPECT_THROW((void)mean_ci(0.0, 1.0, 0.0), util::InvalidArgument);
  EXPECT_THROW((void)mean_ci(0.0, 1.0, 1.0), util::InvalidArgument);
  EXPECT_THROW((void)mean_ci(0.0, -1.0, 0.95), util::InvalidArgument);
}

TEST(Summarize, FromRunningStats) {
  RunningStats r;
  for (const double x : {1.0, 2.0, 3.0, 4.0, 5.0}) r.add(x);
  const Summary s = summarize(r);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_NEAR(s.stddev, std::sqrt(2.5), 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_TRUE(s.ci.contains(3.0));
}

TEST(LinearFit, ExactOnLinearData) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0};
  std::vector<double> ys;
  for (const double x : xs) ys.push_back(-0.25 * x + 3.0);
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_NEAR(f.slope, -0.25, 1e-12);
  EXPECT_NEAR(f.intercept, 3.0, 1e-12);
  EXPECT_NEAR(f.r_squared, 1.0, 1e-12);
}

TEST(LinearFit, RecoversLogLogExponent) {
  // y = k * x^{-1/3}: slope of log y vs log x is -1/3 — exactly the
  // asymptotic-order fitting done for Figure 5.
  std::vector<double> lx, ly;
  for (const double x : {1e-12, 1e-11, 1e-10, 1e-9, 1e-8}) {
    lx.push_back(std::log10(x));
    ly.push_back(std::log10(7.3 * std::pow(x, -1.0 / 3.0)));
  }
  const LinearFit f = linear_fit(lx, ly);
  EXPECT_NEAR(f.slope, -1.0 / 3.0, 1e-9);
}

TEST(LinearFit, NoisyDataRSquaredBelowOne) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 5.0};
  const std::vector<double> ys{1.1, 1.9, 3.2, 3.8, 5.3};
  const LinearFit f = linear_fit(xs, ys);
  EXPECT_GT(f.r_squared, 0.95);
  EXPECT_LT(f.r_squared, 1.0);
}

TEST(LinearFit, Preconditions) {
  const std::vector<double> one{1.0};
  EXPECT_THROW((void)linear_fit(one, one), util::InvalidArgument);
  const std::vector<double> constant{1.0, 1.0};
  const std::vector<double> ys{1.0, 2.0};
  EXPECT_THROW((void)linear_fit(constant, ys), util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::stats
