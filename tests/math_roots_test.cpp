#include "ayd/math/roots.hpp"

#include <cmath>
#include <gtest/gtest.h>

#include "ayd/util/error.hpp"

#include "support/bisect.hpp"

namespace ayd::math {
namespace {

TEST(Bisect, FindsQuadraticRoot) {
  const auto r = bisect([](double x) { return x * x - 2.0; }, 0.0, 2.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, std::sqrt(2.0), 1e-10);
}

TEST(Bisect, ExactEndpointRoots) {
  const auto lo = bisect([](double x) { return x; }, 0.0, 1.0);
  EXPECT_TRUE(lo.converged);
  EXPECT_DOUBLE_EQ(lo.x, 0.0);
  const auto hi = bisect([](double x) { return x - 1.0; }, 0.0, 1.0);
  EXPECT_TRUE(hi.converged);
  EXPECT_DOUBLE_EQ(hi.x, 1.0);
}

TEST(Bisect, RejectsInvalidBracket) {
  EXPECT_THROW(
      (void)bisect([](double x) { return x * x + 1.0; }, -1.0, 1.0),
      util::InvalidArgument);
  EXPECT_THROW((void)bisect([](double x) { return x; }, 2.0, 1.0),
               util::InvalidArgument);
}

TEST(BrentRoot, FindsTranscendentalRoot) {
  // x e^x = 1  =>  x = W(1) ≈ 0.5671432904097838
  const auto r =
      brent_root([](double x) { return x * std::exp(x) - 1.0; }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.5671432904097838, 1e-12);
}

TEST(BrentRoot, HandlesSteepFunctions) {
  const auto r = brent_root(
      [](double x) { return std::expm1(50.0 * (x - 0.3)); }, 0.0, 1.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.x, 0.3, 1e-9);
}

TEST(BrentRoot, FasterThanBisection) {
  const auto f = [](double x) { return std::cos(x) - x; };
  const auto b = bisect(f, 0.0, 1.0);
  const auto br = brent_root(f, 0.0, 1.0);
  EXPECT_TRUE(b.converged);
  EXPECT_TRUE(br.converged);
  EXPECT_NEAR(br.x, b.x, 1e-9);
  EXPECT_LT(br.iterations, b.iterations);
}

TEST(BrentRoot, FTolStopsEarly) {
  RootOptions opt;
  opt.f_tol = 1e-3;
  const auto r = brent_root([](double x) { return x * x * x; }, -1.0, 2.0,
                            opt);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(std::abs(r.fx), 1e-3);
}

class RootMethodsAgree : public ::testing::TestWithParam<double> {};

TEST_P(RootMethodsAgree, OnShiftedCubic) {
  const double shift = GetParam();
  const auto f = [shift](double x) { return x * x * x - shift; };
  const double expected = std::cbrt(shift);
  const auto b = bisect(f, -10.0, 10.0);
  const auto br = brent_root(f, -10.0, 10.0);
  EXPECT_NEAR(b.x, expected, 1e-8);
  EXPECT_NEAR(br.x, expected, 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Shifts, RootMethodsAgree,
                         ::testing::Values(-27.0, -1.0, -0.001, 0.001, 1.0,
                                           8.0, 729.0));

}  // namespace
}  // namespace ayd::math
