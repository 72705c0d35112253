#include "ayd/rng/distributions.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <vector>

#include "ayd/rng/xoshiro256.hpp"
#include "ayd/stats/running.hpp"
#include "ayd/util/error.hpp"

#include "support/ks.hpp"

namespace ayd::rng {
namespace {

constexpr int kSamples = 20000;

TEST(Uniform01, RangeAndMoments) {
  Xoshiro256 eng(42);
  stats::RunningStats s;
  for (int i = 0; i < kSamples; ++i) {
    const double u = uniform01(eng);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    s.add(u);
  }
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
  EXPECT_NEAR(s.variance(), 1.0 / 12.0, 0.005);
}

TEST(Uniform01, PassesKsAgainstUniformCdf) {
  Xoshiro256 eng(7);
  std::vector<double> xs(kSamples);
  for (double& x : xs) x = uniform01(eng);
  const auto ks = stats::ks_test(
      xs, [](double x) { return stats::uniform_cdf(x, 0.0, 1.0); });
  EXPECT_GT(ks.p_value, 1e-3) << "D=" << ks.statistic;
}

TEST(Uniform01OpenLow, NeverZero) {
  Xoshiro256 eng(11);
  for (int i = 0; i < kSamples; ++i) {
    const double u = uniform01_open_low(eng);
    ASSERT_GT(u, 0.0);
    ASSERT_LE(u, 1.0);
  }
}

TEST(UniformRange, RespectsBounds) {
  Xoshiro256 eng(3);
  for (int i = 0; i < 1000; ++i) {
    const double u = uniform(eng, -5.0, 2.5);
    ASSERT_GE(u, -5.0);
    ASSERT_LT(u, 2.5);
  }
  EXPECT_THROW((void)uniform(eng, 1.0, 1.0), util::InvalidArgument);
}

class ExponentialRate : public ::testing::TestWithParam<double> {};

TEST_P(ExponentialRate, MeanVarianceAndKs) {
  const double rate = GetParam();
  Xoshiro256 eng(1234);
  std::vector<double> xs(kSamples);
  stats::RunningStats s;
  for (double& x : xs) {
    x = exponential(eng, rate);
    ASSERT_GT(x, 0.0);
    s.add(x);
  }
  EXPECT_NEAR(s.mean(), 1.0 / rate, 4.0 / (rate * std::sqrt(1.0 * kSamples)));
  EXPECT_NEAR(s.stddev(), 1.0 / rate, 0.1 / rate);
  const auto ks = stats::ks_test(
      xs, [rate](double x) { return stats::exponential_cdf(x, rate); });
  EXPECT_GT(ks.p_value, 1e-3) << "rate=" << rate << " D=" << ks.statistic;
}

INSTANTIATE_TEST_SUITE_P(Rates, ExponentialRate,
                         ::testing::Values(1e-6, 0.01, 1.0, 250.0));

TEST(Exponential, ZeroRateYieldsInfinity) {
  Xoshiro256 eng(9);
  EXPECT_TRUE(std::isinf(exponential(eng, 0.0)));
}

TEST(Exponential, NegativeRateRejected) {
  Xoshiro256 eng(9);
  EXPECT_THROW((void)exponential(eng, -1.0), util::InvalidArgument);
}

TEST(Bernoulli, FrequencyMatchesP) {
  Xoshiro256 eng(21);
  int hits = 0;
  const double p = 0.3;
  for (int i = 0; i < kSamples; ++i) hits += bernoulli(eng, p) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kSamples, p, 0.02);
}

TEST(Bernoulli, DegenerateProbabilities) {
  Xoshiro256 eng(22);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(bernoulli(eng, 0.0));
    EXPECT_TRUE(bernoulli(eng, 1.0));
  }
  EXPECT_THROW((void)bernoulli(eng, 1.5), util::InvalidArgument);
}

TEST(UniformIndex, BoundsAndCoverage) {
  Xoshiro256 eng(17);
  std::vector<int> counts(7, 0);
  for (int i = 0; i < kSamples; ++i) {
    const auto k = uniform_index(eng, 7);
    ASSERT_LT(k, 7u);
    ++counts[static_cast<std::size_t>(k)];
  }
  // Each bucket should be near kSamples/7 (loose 5-sigma-ish bound).
  for (const int c : counts) {
    EXPECT_NEAR(c, kSamples / 7.0, 5.0 * std::sqrt(kSamples / 7.0));
  }
  EXPECT_THROW((void)uniform_index(eng, 0), util::InvalidArgument);
}

TEST(NormalQuantile, KnownValues) {
  EXPECT_NEAR(detail::normal_quantile(0.5), 0.0, 1e-9);
  EXPECT_NEAR(detail::normal_quantile(0.975), 1.959963984540054, 1e-7);
  EXPECT_NEAR(detail::normal_quantile(0.025), -1.959963984540054, 1e-7);
  EXPECT_NEAR(detail::normal_quantile(0.8413447460685429), 1.0, 1e-6);
  EXPECT_THROW((void)detail::normal_quantile(0.0), util::InvalidArgument);
  EXPECT_THROW((void)detail::normal_quantile(1.0), util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::rng
