#include "support/integrate.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "ayd/util/error.hpp"

namespace ayd::math {
namespace {

TEST(Integrate, PolynomialIsExact) {
  // Simpson is exact on cubics.
  const auto r = integrate(
      [](double x) { return x * x * x - 2.0 * x + 1.0; }, -1.0, 3.0);
  // Antiderivative: x^4/4 - x^2 + x.
  const double expected = (81.0 / 4.0 - 9.0 + 3.0) - (0.25 - 1.0 - 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.value, expected, 1e-10);
}

TEST(Integrate, Exponential) {
  const auto r = integrate([](double x) { return std::exp(-x); }, 0.0, 10.0);
  EXPECT_NEAR(r.value, 1.0 - std::exp(-10.0), 1e-9);
}

TEST(Integrate, OscillatoryNeedsAdaptivity) {
  const auto r =
      integrate([](double x) { return std::sin(10.0 * x); }, 0.0, M_PI);
  EXPECT_NEAR(r.value, (1.0 - std::cos(10.0 * M_PI)) / 10.0, 1e-8);
  EXPECT_GT(r.evaluations, 20);  // must have subdivided
}

TEST(Integrate, EmptyInterval) {
  const auto r = integrate([](double x) { return x; }, 2.0, 2.0);
  EXPECT_TRUE(r.converged);
  EXPECT_DOUBLE_EQ(r.value, 0.0);
}

TEST(Integrate, RejectsReversedBounds) {
  EXPECT_THROW((void)integrate([](double x) { return x; }, 2.0, 1.0),
               util::InvalidArgument);
}

TEST(Integrate, SharpPeakConverges) {
  // Narrow Gaussian integrates to ~sqrt(pi)*width.
  const double w = 1e-3;
  const auto r = integrate(
      [w](double x) { return std::exp(-(x * x) / (w * w)); }, -1.0, 1.0);
  EXPECT_NEAR(r.value, std::sqrt(M_PI) * w, 1e-8);
}

TEST(Integrate, ErrorEstimateBoundsTrueError) {
  const auto f = [](double x) { return std::exp(x) * std::sin(3.0 * x); };
  // Antiderivative: e^x (sin 3x - 3 cos 3x)/10.
  const auto F = [](double x) {
    return std::exp(x) * (std::sin(3.0 * x) - 3.0 * std::cos(3.0 * x)) / 10.0;
  };
  const auto r = integrate(f, 0.0, 2.0);
  const double truth = F(2.0) - F(0.0);
  EXPECT_NEAR(r.value, truth, 1e-8);
  EXPECT_LE(std::abs(r.value - truth), std::max(r.error_estimate, 1e-10));
}

class ExponentialMoments : public ::testing::TestWithParam<double> {};

TEST_P(ExponentialMoments, MeanOfExponentialDensity) {
  // ∫ t λ e^{-λt} dt over [0, ∞) = 1/λ; truncate at 50/λ.
  const double lambda = GetParam();
  const auto r = integrate(
      [lambda](double t) { return t * lambda * std::exp(-lambda * t); }, 0.0,
      50.0 / lambda);
  EXPECT_NEAR(r.value, 1.0 / lambda, 1e-6 / lambda);
}

INSTANTIATE_TEST_SUITE_P(Rates, ExponentialMoments,
                         ::testing::Values(0.01, 0.5, 1.0, 7.0, 100.0));

}  // namespace
}  // namespace ayd::math
