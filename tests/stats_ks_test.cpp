#include "support/ks.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "ayd/rng/distributions.hpp"
#include "ayd/rng/xoshiro256.hpp"
#include "ayd/util/error.hpp"

namespace ayd::stats {
namespace {

std::vector<double> exponential_sample(double rate, int n,
                                       std::uint64_t seed) {
  rng::Xoshiro256 eng(seed);
  std::vector<double> xs(static_cast<std::size_t>(n));
  for (double& x : xs) x = rng::exponential(eng, rate);
  return xs;
}

TEST(KsTest, AcceptsCorrectDistribution) {
  const auto xs = exponential_sample(2.0, 5000, 42);
  const auto r =
      ks_test(xs, [](double x) { return exponential_cdf(x, 2.0); });
  EXPECT_GT(r.p_value, 0.001);
  EXPECT_LT(r.statistic, 0.05);
  EXPECT_EQ(r.n, 5000u);
}

TEST(KsTest, RejectsWrongRate) {
  const auto xs = exponential_sample(2.0, 5000, 43);
  const auto r =
      ks_test(xs, [](double x) { return exponential_cdf(x, 1.0); });
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTest, RejectsWrongFamily) {
  const auto xs = exponential_sample(1.0, 5000, 44);
  const auto r =
      ks_test(xs, [](double x) { return uniform_cdf(x, 0.0, 5.0); });
  EXPECT_LT(r.p_value, 1e-6);
}

TEST(KsTest, PerfectFitOnQuantileGrid) {
  // Deterministic sample at uniform quantiles: D_n = 1/(2n) (minimal).
  std::vector<double> xs;
  const int n = 100;
  for (int i = 0; i < n; ++i) xs.push_back((i + 0.5) / n);
  const auto r = ks_test(xs, [](double x) { return uniform_cdf(x, 0.0, 1.0); });
  EXPECT_NEAR(r.statistic, 0.5 / n, 1e-12);
  EXPECT_GT(r.p_value, 0.999);
}

TEST(KsTest, EmptySampleRejected) {
  EXPECT_THROW((void)ks_test({}, [](double) { return 0.5; }),
               util::InvalidArgument);
}

TEST(KsTest, CdfRangeValidated) {
  const std::vector<double> xs{1.0, 2.0};
  EXPECT_THROW((void)ks_test(xs, [](double) { return 1.5; }),
               util::InvalidArgument);
}

TEST(ExponentialCdf, Values) {
  EXPECT_DOUBLE_EQ(exponential_cdf(-1.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(exponential_cdf(0.0, 2.0), 0.0);
  EXPECT_NEAR(exponential_cdf(1.0, 2.0), 1.0 - std::exp(-2.0), 1e-15);
  EXPECT_THROW((void)exponential_cdf(1.0, 0.0), util::InvalidArgument);
}

TEST(UniformCdf, Values) {
  EXPECT_DOUBLE_EQ(uniform_cdf(-1.0, 0.0, 2.0), 0.0);
  EXPECT_DOUBLE_EQ(uniform_cdf(0.5, 0.0, 2.0), 0.25);
  EXPECT_DOUBLE_EQ(uniform_cdf(3.0, 0.0, 2.0), 1.0);
  EXPECT_THROW((void)uniform_cdf(0.0, 2.0, 1.0), util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::stats
