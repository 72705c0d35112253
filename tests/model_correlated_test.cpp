// Statistical validation of the correlated / multi-level world samplers
// (CTest label: "statistical"; CI runs this tier in its own job).
//
// The segmented simulators (sim/segmented.hpp) draw one arrival per
// fail source each renewal interval and let the earliest strike. The
// marginal law of that minimum has the closed form
//     F(x) = 1 - prod_j (1 - F_j(x))
// over the per-source inter-arrival CDFs F_j, so we KS-test 10k
// fixed-seed minima from the production source set against it — for the
// shock mixture and for heterogeneous component classes. Moments with
// closed-form expectations (shock share of strikes, mean first arrival)
// pin the rate parameterization itself: a mis-scaled shock_rate would
// pass a shape-only KS test on the shock stream alone but not these.

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "ayd/core/pattern.hpp"
#include "ayd/model/correlated.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/model/system.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/sim/segmented.hpp"
#include "ayd/util/error.hpp"

#include "support/ks.hpp"

namespace ayd::model {
namespace {

constexpr std::size_t kSamples = 10000;
constexpr std::uint64_t kSeed = 0xA4D2016ULL;
constexpr double kPValueFloor = 1e-3;

/// The production source set of an extended system at this pattern.
sim::detail::SegmentedWorld world_of(const System& sys,
                                     const core::Pattern& pattern) {
  return sim::detail::SegmentedWorld(sys, pattern);
}

struct MinDraw {
  double gap = 0.0;
  bool from_shock = false;
};

/// One renewal-interval draw exactly as the fast simulator makes it:
/// every active source sampled in order, strict < keeps the first.
MinDraw draw_min(const sim::detail::SegmentedWorld& world,
                 rng::RngStream& rng) {
  MinDraw out;
  out.gap = std::numeric_limits<double>::infinity();
  for (const sim::detail::FailSource& src : world.fail_sources) {
    if (src.dist->rate() <= 0.0) continue;
    const double a = src.dist->sample(rng);
    if (a < out.gap) {
      out.gap = a;
      out.from_shock = src.is_shock;
    }
  }
  return out;
}

/// Closed-form CDF of the minimum over the world's fail sources.
double min_cdf(const sim::detail::SegmentedWorld& world, double x) {
  double survival = 1.0;
  for (const sim::detail::FailSource& src : world.fail_sources) {
    if (src.dist->rate() <= 0.0) continue;
    survival *= 1.0 - src.dist->cdf(x);
  }
  return 1.0 - survival;
}

void expect_min_marginal_ks_passes(const System& sys,
                                   const core::Pattern& pattern,
                                   std::uint64_t stream_id,
                                   const char* label) {
  const auto world = world_of(sys, pattern);
  rng::RngStream rng(kSeed, stream_id);
  std::vector<double> xs(kSamples);
  for (double& x : xs) x = draw_min(world, rng).gap;
  const auto ks =
      stats::ks_test(xs, [&](double x) { return min_cdf(world, x); });
  EXPECT_GT(ks.p_value, kPValueFloor) << label << ": D=" << ks.statistic;
}

TEST(CorrelatedSamplers, ShockMixtureMarginalGapMatchesClosedFormCdf) {
  const System sys =
      System::from_platform(hera(), Scenario::kS1)
          .with_lambda(1e-8)
          .with_shock({0.5, 0.02});
  expect_min_marginal_ks_passes(sys, {3600.0, 128.0}, 1,
                                "shock rho=0.5 g=0.02");
}

TEST(CorrelatedSamplers, ShockMixtureWithWeibullShockDist) {
  const System sys =
      System::from_platform(hera(), Scenario::kS1)
          .with_lambda(1e-8)
          .with_shock({0.3, 0.05, FailureDistSpec::weibull(0.7)});
  expect_min_marginal_ks_passes(sys, {3600.0, 256.0}, 2,
                                "shock rho=0.3 weibull k=0.7");
}

TEST(CorrelatedSamplers, HeterogeneousMarginalGapMatchesClosedFormCdf) {
  HeterogeneousSpec hetero;
  hetero.groups = {{0.25, 2.0, FailureDistSpec::weibull(0.7)},
                   {0.5, 0.8, {}},
                   {0.25, 0.4, FailureDistSpec::lognormal(1.2)}};
  const System sys = System::from_platform(hera(), Scenario::kS3)
                         .with_lambda(1e-8)
                         .with_heterogeneity(hetero);
  ASSERT_TRUE(sys.extended());
  expect_min_marginal_ks_passes(sys, {3600.0, 512.0}, 3,
                                "hetero 3 classes");
}

TEST(CorrelatedSamplers, ShockPlusHeterogeneityCombined) {
  HeterogeneousSpec hetero;
  hetero.groups = {{0.5, 1.5, FailureDistSpec::weibull(1.5)},
                   {0.5, 0.5, {}}};
  const System sys = System::from_platform(hera(), Scenario::kS1)
                         .with_lambda(1e-8)
                         .with_shock({0.4, 0.05})
                         .with_heterogeneity(hetero);
  expect_min_marginal_ks_passes(sys, {7200.0, 256.0}, 4,
                                "shock + hetero");
}

TEST(CorrelatedSamplers, ShockShareAndMeanGapMatchClosedFormMoments) {
  // All-exponential sources: the strike probability of the shock stream
  // is exactly lambda_shock / lambda_total, and the mean minimum is
  // exactly 1 / lambda_total. These moments pin shock_rate's
  // parameterization (rho * f * lambda_ind / g, independent of P).
  const double rho = 0.5;
  const double g = 0.02;
  const double lambda = 1e-8;
  const double procs = 128.0;
  const System sys = System::from_platform(hera(), Scenario::kS1)
                         .with_lambda(lambda)
                         .with_shock({rho, g});
  const auto world = world_of(sys, {3600.0, procs});

  const double f = sys.failure().fail_stop_fraction();
  const double lambda_ind = (1.0 - rho) * f * lambda * procs;
  const double lambda_shock = rho * f * lambda / g;
  const double lambda_total = lambda_ind + lambda_shock;
  ASSERT_NEAR(world.total_fail_rate, lambda_total, 1e-12 * lambda_total);

  rng::RngStream rng(kSeed, 5);
  std::size_t shocks = 0;
  double sum = 0.0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const MinDraw d = draw_min(world, rng);
    if (d.from_shock) ++shocks;
    sum += d.gap;
  }

  const double p_shock = lambda_shock / lambda_total;
  const double share = static_cast<double>(shocks) / kSamples;
  const double binom_sd = std::sqrt(p_shock * (1.0 - p_shock) / kSamples);
  EXPECT_NEAR(share, p_shock, 4.0 * binom_sd);

  const double mean = sum / kSamples;
  const double expected_mean = 1.0 / lambda_total;
  // Exponential minimum: sd equals the mean; 4-sigma band on the sample
  // mean.
  EXPECT_NEAR(mean, expected_mean,
              4.0 * expected_mean / std::sqrt(double(kSamples)));
}

TEST(CorrelatedSamplers, HeterogeneousClassSharesMatchRateFractions) {
  // Exponential classes at distinct scales: class j strikes with
  // probability proportional to its rate share * scale.
  HeterogeneousSpec hetero;
  hetero.groups = {{0.25, 3.0, {}}, {0.75, 1.0 / 3.0, {}}};
  const System sys = System::from_platform(hera(), Scenario::kS3)
                         .with_lambda(1e-8)
                         .with_heterogeneity(hetero);
  const auto world = world_of(sys, {3600.0, 256.0});
  ASSERT_EQ(world.fail_sources.size(), 2u);

  rng::RngStream rng(kSeed, 6);
  std::size_t first = 0;
  for (std::size_t i = 0; i < kSamples; ++i) {
    double best = std::numeric_limits<double>::infinity();
    std::size_t who = 0;
    for (std::size_t j = 0; j < world.fail_sources.size(); ++j) {
      const double a = world.fail_sources[j].dist->sample(rng);
      if (a < best) {
        best = a;
        who = j;
      }
    }
    if (who == 0) ++first;
  }
  // share * scale: 0.25 * 3 = 0.75 of the total platform rate.
  const double p = 0.75;
  const double sd = std::sqrt(p * (1.0 - p) / kSamples);
  EXPECT_NEAR(static_cast<double>(first) / kSamples, p, 4.0 * sd);
}

// -- spec plumbing (parse / print / normalize round trips) ---------------

TEST(CorrelatedSpecs, ShockSpecParsePrintRoundTrip) {
  const ShockSpec s = ShockSpec::parse("rho=0.4,group=0.1,dist=weibull:k=0.7");
  EXPECT_DOUBLE_EQ(s.correlation, 0.4);
  EXPECT_DOUBLE_EQ(s.group_fraction, 0.1);
  EXPECT_EQ(s.dist, FailureDistSpec::weibull(0.7));
  EXPECT_EQ(ShockSpec::parse(s.to_string()), s);
  EXPECT_THROW(ShockSpec::parse("group=0.1"), util::InvalidArgument);
  EXPECT_THROW(ShockSpec::parse("rho=1.0"), util::InvalidArgument);
  EXPECT_THROW(ShockSpec::parse("rho=0.5,group=0"), util::InvalidArgument);
}

TEST(CorrelatedSpecs, HeterogeneousSpecParseValidatesBudgets) {
  const HeterogeneousSpec h =
      HeterogeneousSpec::parse("0.25*3*weibull:k=0.7;0.75*0.333333333333333*"
                               "exponential");
  EXPECT_EQ(h.groups.size(), 2u);
  // Shares off budget are rejected at normalization time.
  HeterogeneousSpec bad;
  bad.groups = {{0.5, 1.0, {}}, {0.4, 1.0, {}}};
  EXPECT_THROW((void)bad.normalized({}), util::InvalidArgument);
  // Scales off the share-weighted budget too.
  HeterogeneousSpec skew;
  skew.groups = {{0.5, 2.0, {}}, {0.5, 0.5, {}}};
  EXPECT_THROW((void)skew.normalized({}), util::InvalidArgument);
}

TEST(CorrelatedSpecs, FromPenaltyScalesRecoveryCoefficientwise) {
  const System base = System::from_platform(hera(), Scenario::kS1);
  const TwoTierCostSpec spec =
      TwoTierCostSpec::from_penalty(base.costs(), 4.0);
  EXPECT_TRUE(spec.distinct());
  for (const double p : {64.0, 512.0, 4096.0}) {
    EXPECT_DOUBLE_EQ(spec.pfs_recovery.cost(p),
                     4.0 * base.costs().recovery.cost(p));
    EXPECT_DOUBLE_EQ(spec.bb_write.cost(p) + spec.pfs_write.cost(p),
                     base.costs().checkpoint.cost(p));
  }
  EXPECT_THROW((void)TwoTierCostSpec::from_penalty(base.costs(), 0.5),
               util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::model
