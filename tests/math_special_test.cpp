#include "ayd/math/special.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "support/integrate.hpp"

namespace ayd::math {
namespace {

TEST(Expm1OverX, ExactAtZero) { EXPECT_DOUBLE_EQ(expm1_over_x(0.0), 1.0); }

TEST(Expm1OverX, MatchesDefinitionForModerateX) {
  for (const double x : {-5.0, -1.0, -0.1, 0.1, 1.0, 5.0, 20.0}) {
    EXPECT_NEAR(expm1_over_x(x), std::expm1(x) / x, 1e-14 * std::abs(
        std::expm1(x) / x)) << "x=" << x;
  }
}

TEST(Expm1OverX, StableForTinyX) {
  // Series: 1 + x/2 + x^2/6; for x = 1e-12 the linear term matters, the
  // quadratic one is far below epsilon.
  EXPECT_DOUBLE_EQ(expm1_over_x(1e-12), 1.0 + 0.5e-12);
  EXPECT_DOUBLE_EQ(expm1_over_x(-1e-12), 1.0 - 0.5e-12);
}

TEST(Expm1OverX, MonotoneIncreasing) {
  double prev = expm1_over_x(-30.0);
  for (double x = -29.0; x <= 30.0; x += 1.0) {
    const double cur = expm1_over_x(x);
    EXPECT_GT(cur, prev) << "x=" << x;
    prev = cur;
  }
}

TEST(ExpectedTimeLost, HalfOfWindowForTinyRates) {
  EXPECT_NEAR(expected_time_lost(1e-12, 100.0), 50.0, 1e-6);
  EXPECT_NEAR(expected_time_lost(0.0, 100.0), 50.0, 1e-9);
}

TEST(ExpectedTimeLost, ApproachesMeanForLongWindows) {
  // Conditioned on striking within a window much longer than 1/rate, the
  // expected strike time approaches the unconditional mean 1/rate.
  EXPECT_NEAR(expected_time_lost(2.0, 1e9), 0.5, 1e-9);
  EXPECT_DOUBLE_EQ(expected_time_lost(1.0, 1e6), 1.0);  // overflow guard path
}

TEST(ExpectedTimeLost, MatchesDefiningIntegral) {
  // E_lost(w) = ∫ t·rate·e^{-rate t} dt / P(X < w) over [0, w].
  for (const double rate : {0.5, 1.0, 3.0}) {
    for (const double w : {0.2, 1.0, 4.0}) {
      const auto pdf = [rate](double t) {
        return t * rate * std::exp(-rate * t);
      };
      const double numer = integrate(pdf, 0.0, w).value;
      const double denom = 1.0 - std::exp(-rate * w);
      EXPECT_NEAR(expected_time_lost(rate, w), numer / denom, 1e-9)
          << "rate=" << rate << " w=" << w;
    }
  }
}

TEST(ExpectedTimeLost, BelowHalfWindowAlways) {
  // The exponential's decreasing density means the conditional mean is
  // always below w/2.
  for (const double rate : {0.1, 1.0, 10.0}) {
    for (const double w : {0.5, 2.0, 20.0}) {
      EXPECT_LT(expected_time_lost(rate, w), 0.5 * w + 1e-12);
    }
  }
}

TEST(RelDiff, Basics) {
  EXPECT_DOUBLE_EQ(rel_diff(1.0, 1.0), 0.0);
  EXPECT_DOUBLE_EQ(rel_diff(2.0, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(rel_diff(0.0, 0.0), 0.0);
}

}  // namespace
}  // namespace ayd::math
