#include "ayd/model/failure.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "ayd/util/error.hpp"
#include "ayd/util/units.hpp"

namespace ayd::model {
namespace {

TEST(FailureModel, RatesScaleLinearlyWithP) {
  const FailureModel fm(1.69e-8, 0.2188);
  EXPECT_DOUBLE_EQ(fm.fail_stop_rate(1.0), 0.2188 * 1.69e-8);
  EXPECT_DOUBLE_EQ(fm.fail_stop_rate(512.0), 0.2188 * 1.69e-8 * 512.0);
  EXPECT_DOUBLE_EQ(fm.silent_rate(512.0), 0.7812 * 1.69e-8 * 512.0);
  EXPECT_DOUBLE_EQ(fm.total_rate(512.0),
                   fm.fail_stop_rate(512.0) + fm.silent_rate(512.0));
}

TEST(FailureModel, FractionsSumToOne) {
  const FailureModel fm(1e-8, 0.3);
  EXPECT_DOUBLE_EQ(fm.fail_stop_fraction() + fm.silent_fraction(), 1.0);
}

TEST(FailureModel, MtbfReciprocal) {
  const FailureModel fm(2e-9, 0.5);
  EXPECT_DOUBLE_EQ(fm.mtbf_ind(), 5e8);
  EXPECT_DOUBLE_EQ(fm.platform_mtbf(1000.0), 5e5);
}

TEST(FailureModel, CenturyMtbfPlatformExample) {
  // The introduction's example: a one-century MTBF per node gives a
  // 100,000-node machine a platform MTBF of ~9 hours.
  const FailureModel fm(1.0 / util::years(100.0), 1.0);
  const double platform_mtbf = fm.platform_mtbf(100000.0);
  EXPECT_NEAR(util::to_hours(platform_mtbf), 8.77, 0.05);
}

TEST(FailureModel, ErrorFree) {
  const FailureModel fm = FailureModel::error_free();
  EXPECT_DOUBLE_EQ(fm.fail_stop_rate(1e6), 0.0);
  EXPECT_DOUBLE_EQ(fm.silent_rate(1e6), 0.0);
  EXPECT_TRUE(std::isinf(fm.mtbf_ind()));
  EXPECT_TRUE(std::isinf(fm.platform_mtbf(512.0)));
}

TEST(FailureModel, WeightedLambda) {
  // (f/2 + s)·λ with f = 0.2, s = 0.8: weight 0.9.
  const FailureModel fm(1e-8, 0.2);
  EXPECT_NEAR(fm.weighted_lambda(), 0.9e-8, 1e-20);
  // All-fail-stop gives λ/2 (the classic Young/Daly halving).
  const FailureModel fs(1e-8, 1.0);
  EXPECT_NEAR(fs.weighted_lambda(), 0.5e-8, 1e-20);
  // All-silent gives λ (no halving: errors waste the full period).
  const FailureModel si(1e-8, 0.0);
  EXPECT_NEAR(si.weighted_lambda(), 1e-8, 1e-20);
}

TEST(FailureModel, WithLambdaPreservesFraction) {
  const FailureModel fm(1e-8, 0.25);
  const FailureModel scaled = fm.with_lambda(1e-10);
  EXPECT_DOUBLE_EQ(scaled.lambda_ind(), 1e-10);
  EXPECT_DOUBLE_EQ(scaled.fail_stop_fraction(), 0.25);
}

TEST(FailureModel, DefaultsToExponentialArrivals) {
  const FailureModel fm(1e-8, 0.25);
  EXPECT_EQ(fm.dist().kind(), FailureDistKind::kExponential);
  EXPECT_TRUE(fm.dist().memoryless());
}

TEST(FailureModel, WithLambdaAndWithDistPreserveEachOther) {
  const FailureModel fm =
      FailureModel(1e-8, 0.25).with_dist(FailureDistSpec::weibull(0.7));
  EXPECT_EQ(fm.dist().kind(), FailureDistKind::kWeibull);
  const FailureModel scaled = fm.with_lambda(1e-10);
  EXPECT_EQ(scaled.dist(), fm.dist());
  EXPECT_DOUBLE_EQ(scaled.lambda_ind(), 1e-10);
  EXPECT_DOUBLE_EQ(scaled.fail_stop_fraction(), 0.25);
}

TEST(FailureModel, ErrorFreeWithAnyDistYieldsInfiniteArrivals) {
  // Regression: lambda == 0 must instantiate the degenerate "never
  // fails" distribution (+inf inter-arrival), not push 0 through a
  // quantile inversion whose infinite scale would produce NaN.
  for (const auto& spec :
       {FailureDistSpec::exponential(), FailureDistSpec::weibull(0.7),
        FailureDistSpec::lognormal(1.2),
        FailureDistSpec::trace_replay({10.0, 20.0, 30.0})}) {
    const FailureModel fm = FailureModel::error_free().with_dist(spec);
    const auto dist = fm.dist().instantiate(fm.fail_stop_rate(4096.0));
    rng::RngStream rng(1234);
    const double gap = dist->sample(rng);
    EXPECT_TRUE(std::isinf(gap)) << fm.dist().to_string();
    EXPECT_FALSE(std::isnan(gap)) << fm.dist().to_string();
    EXPECT_TRUE(std::isinf(dist->quantile(0.5)));
    EXPECT_DOUBLE_EQ(dist->cdf(1e300), 0.0);
  }
}

TEST(FailureModel, Preconditions) {
  EXPECT_THROW(FailureModel(-1e-8, 0.5), util::InvalidArgument);
  EXPECT_THROW(FailureModel(1e-8, -0.1), util::InvalidArgument);
  EXPECT_THROW(FailureModel(1e-8, 1.1), util::InvalidArgument);
  const FailureModel fm(1e-8, 0.5);
  EXPECT_THROW((void)fm.fail_stop_rate(0.5), util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::model
