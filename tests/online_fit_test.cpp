// Statistical tier (ctest label `statistical`) of the online estimator:
// fit recovery on large fixed-seed samples (parameter tolerances + a KS
// goodness-of-fit pass against the *fitted* law), AIC family selection,
// the round-trip contract into model::FailureDistSpec, and the drift
// detector's false-positive guard on stationary streams. Everything is
// fixed-seed: a pass is a pass forever.

#include "ayd/stats/online_fit.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <vector>

#include "ayd/model/failure_dist.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/util/error.hpp"

#include "support/ks.hpp"
#include "support/log_sample.hpp"

namespace ayd::stats {
namespace {

constexpr std::uint64_t kSeed = 0x20160907ULL;

// Draws n gaps from the repo's own sampler (quantile inversion, so the
// sample is exactly the law the model layer deploys).
std::vector<double> draw(const model::FailureDistSpec& spec, double rate,
                         std::size_t n, std::uint64_t stream) {
  const auto dist = spec.instantiate(rate);
  rng::RngStream rng(kSeed, stream);
  std::vector<double> gaps;
  gaps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) gaps.push_back(dist->sample(rng));
  return gaps;
}

// KS pass of the sample against the law the fit claims, rebuilt through
// the model bridge — this checks the parameters *and* the round-trip in
// one shot.
void expect_ks_pass(const std::vector<double>& sample, const MleFit& fit) {
  const model::FittedFailureDist bridged = model::failure_dist_from_fit(fit);
  ASSERT_TRUE(bridged.valid);
  const auto dist = bridged.spec.instantiate(bridged.rate);
  const KsResult ks =
      ks_test(sample, [&](double x) { return dist->cdf(x); });
  EXPECT_GT(ks.p_value, 0.01) << "KS D=" << ks.statistic;
}

// -- Fit recovery on 10k samples -----------------------------------------

TEST(OnlineFitStatistical, WeibullWearOutRecoveredOn10kSamples) {
  const double k = 1.5;
  const double rate = 1.0 / 3600.0;
  const std::vector<double> gaps =
      draw(model::FailureDistSpec::weibull(k), rate, 10000, 1);
  const MleFit fit = fit_weibull_mle(positive_gaps(gaps));
  ASSERT_TRUE(fit.valid);
  EXPECT_EQ(fit.count, 10000u);
  EXPECT_NEAR(fit.shape, k, 0.05 * k);
  EXPECT_NEAR(fit.rate, rate, 0.05 * rate);
  expect_ks_pass(gaps, fit);
}

TEST(OnlineFitStatistical, WeibullBurstyRecoveredOn10kSamples) {
  // k < 1 is the paper's bursty regime — the hard side for MLE (infant
  // mortality piles mass near zero).
  const double k = 0.7;
  const double rate = 1.0 / 3600.0;
  const std::vector<double> gaps =
      draw(model::FailureDistSpec::weibull(k), rate, 10000, 2);
  const MleFit fit = fit_weibull_mle(positive_gaps(gaps));
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.shape, k, 0.05 * k);
  EXPECT_NEAR(fit.rate, rate, 0.05 * rate);
  expect_ks_pass(gaps, fit);
}

TEST(OnlineFitStatistical, LognormalRecoveredOn10kSamples) {
  const double sigma = 0.8;
  const double rate = 1.0 / 7200.0;
  const std::vector<double> gaps =
      draw(model::FailureDistSpec::lognormal(sigma), rate, 10000, 3);
  const MleFit fit = fit_lognormal_mle(positive_gaps(gaps));
  ASSERT_TRUE(fit.valid);
  EXPECT_NEAR(fit.shape, sigma, 0.05 * sigma);
  EXPECT_NEAR(fit.rate, rate, 0.05 * rate);
  expect_ks_pass(gaps, fit);
}

TEST(OnlineFitStatistical, ExponentialRateRecoveredExactly) {
  const double rate = 1.0 / 1800.0;
  const std::vector<double> gaps =
      draw(model::FailureDistSpec::exponential(), rate, 10000, 4);
  const MleFit fit = fit_exponential_mle(positive_gaps(gaps));
  ASSERT_TRUE(fit.valid);
  // The exponential MLE *is* the sample mean — exact, not approximate.
  double sum = 0.0;
  for (const double g : gaps) sum += g;
  EXPECT_DOUBLE_EQ(fit.scale, sum / static_cast<double>(gaps.size()));
  EXPECT_NEAR(fit.rate, rate, 0.05 * rate);
  expect_ks_pass(gaps, fit);
}

// -- Family selection -----------------------------------------------------

TEST(OnlineFitStatistical, AicSelectsTheGeneratingFamily) {
  const std::vector<double> bursty =
      draw(model::FailureDistSpec::weibull(0.7), 1.0 / 3600.0, 4000, 5);
  EXPECT_EQ(fit_best_mle(positive_gaps(bursty)).family, FitFamily::kWeibull);

  const std::vector<double> heavy =
      draw(model::FailureDistSpec::lognormal(1.2), 1.0 / 3600.0, 4000, 6);
  EXPECT_EQ(fit_best_mle(positive_gaps(heavy)).family, FitFamily::kLogNormal);
}

TEST(OnlineFitStatistical, ExponentialDataNeverGainsSpuriousShape) {
  // On memoryless data the two-parameter families cannot buy much
  // likelihood; whichever family AIC lands on, the implied law must be
  // (near-)exponential: mean right, and a Weibull winner must sit at
  // k ~= 1.
  const double rate = 1.0 / 3600.0;
  const std::vector<double> gaps =
      draw(model::FailureDistSpec::exponential(), rate, 4000, 7);
  const MleFit best = fit_best_mle(positive_gaps(gaps));
  ASSERT_TRUE(best.valid);
  EXPECT_NEAR(best.rate, rate, 0.05 * rate);
  if (best.family == FitFamily::kWeibull) {
    EXPECT_NEAR(best.shape, 1.0, 0.1);
  }
  expect_ks_pass(gaps, best);
}

// -- Robustness and degenerate inputs ------------------------------------

TEST(OnlineFit, WindowIgnoresNonPositiveAndNonFiniteGaps) {
  // OnlineFit::add is the filter in front of the fitters: a dirty stream
  // leaves the same window, hence the same fit, as the clean one.
  const std::vector<double> clean =
      draw(model::FailureDistSpec::weibull(1.3), 1.0 / 600.0, 500, 8);
  std::vector<double> dirty = clean;
  dirty.insert(dirty.begin(), 0.0);
  dirty.push_back(-4.0);
  dirty.push_back(std::nan(""));
  dirty.push_back(std::numeric_limits<double>::infinity());
  OnlineFitOptions opt;
  opt.window = 1024;
  OnlineFit online(opt);
  for (const double g : dirty) online.add(g);
  EXPECT_EQ(online.count(), clean.size());
  const MleFit a = fit_best_mle(positive_gaps(clean));
  const MleFit b = online.fit();
  ASSERT_TRUE(a.valid);
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.shape, b.shape);
  EXPECT_DOUBLE_EQ(a.scale, b.scale);
  EXPECT_DOUBLE_EQ(a.log_likelihood, b.log_likelihood);
}

TEST(OnlineFit, TooSmallSamplesAreInvalidNotThrowing) {
  EXPECT_FALSE(fit_exponential_mle(positive_gaps({})).valid);
  const std::vector<double> one = {3600.0};
  EXPECT_TRUE(fit_exponential_mle(positive_gaps(one)).valid);
  EXPECT_FALSE(fit_weibull_mle(positive_gaps(one)).valid);
  EXPECT_FALSE(fit_lognormal_mle(positive_gaps(one)).valid);
  // fit_best falls back to the exponential when it is the only valid fit.
  EXPECT_EQ(fit_best_mle(positive_gaps(one)).family, FitFamily::kExponential);
}

// -- Round-trip contract --------------------------------------------------

TEST(OnlineFit, FitDensityMatchesTheBridgedModelDensity) {
  // MleFit::log_pdf and the FailureDistSpec rebuilt from the fit must be
  // the same function — the drift detector scores with the former, the
  // simulator deploys the latter.
  const std::vector<double> gaps =
      draw(model::FailureDistSpec::weibull(0.9), 1.0 / 3600.0, 2000, 9);
  for (const MleFit fit :
       {fit_exponential_mle(positive_gaps(gaps)), fit_weibull_mle(positive_gaps(gaps)),
        fit_lognormal_mle(positive_gaps(gaps))}) {
    ASSERT_TRUE(fit.valid);
    const model::FittedFailureDist bridged = model::failure_dist_from_fit(fit);
    const auto dist = bridged.spec.instantiate(bridged.rate);
    for (const double x : {10.0, 600.0, 3600.0, 7200.0, 40000.0}) {
      EXPECT_NEAR(fit.log_pdf(x), std::log(dist->pdf(x)),
                  1e-9 * std::abs(fit.log_pdf(x)))
          << fit_family_name(fit.family) << " at x=" << x;
    }
  }
}

// -- Drift detector -------------------------------------------------------

OnlineFit make_detector(const model::FailureDistSpec& spec, double rate,
                        OnlineFitOptions options = {}) {
  OnlineFit fit(options);
  std::shared_ptr<const model::FailureDistribution> dist =
      spec.instantiate(rate);
  fit.set_baseline([dist](double x) {
    const double p = dist->pdf(x);
    return p > 0.0 ? std::log(p) : kLogDensityFloor;
  });
  return fit;
}

TEST(OnlineFitStatistical, NoFalsePositivesOnAStationaryStream) {
  // 5000 events from exactly the deployed law: with the default CI level
  // and noise floor, not one drift decision may fire. Fixed seed, so
  // this is a deterministic guarantee, not a flaky rate estimate.
  const double rate = 1.0 / 3600.0;
  const std::vector<double> gaps =
      draw(model::FailureDistSpec::exponential(), rate, 5000, 10);
  OnlineFit fit = make_detector(model::FailureDistSpec::exponential(), rate);
  std::size_t refits = 0;
  std::size_t drifts = 0;
  for (const double g : gaps) {
    const DriftDecision d = fit.add(g);
    refits += d.refit_ran ? 1 : 0;
    drifts += d.drift ? 1 : 0;
  }
  EXPECT_GT(refits, 100u);  // the detector was genuinely looking
  EXPECT_EQ(drifts, 0u);
  EXPECT_EQ(fit.count(), 5000u);
  EXPECT_EQ(fit.window_fill(), fit.options().window);
}

TEST(OnlineFitStatistical, ShapeSwitchDetectedWithinTwoWindows) {
  const double rate = 1.0 / 3600.0;
  std::vector<double> gaps =
      draw(model::FailureDistSpec::weibull(0.7), rate, 600, 11);
  const std::vector<double> after =
      draw(model::FailureDistSpec::weibull(1.4), rate, 1200, 12);
  gaps.insert(gaps.end(), after.begin(), after.end());

  OnlineFit fit = make_detector(model::FailureDistSpec::weibull(0.7), rate);
  std::size_t fired_at = 0;
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    const DriftDecision d = fit.add(gaps[i]);
    if (d.drift) {
      fired_at = i + 1;
      EXPECT_GE(d.mean_llr, fit.options().min_mean_llr);
      EXPECT_GT(d.llr_ci_lo, 0.0);
      break;
    }
  }
  ASSERT_GT(fired_at, 600u) << "drift fired on the stationary prefix";
  EXPECT_LE(fired_at, 600u + 2u * fit.options().window);
}

TEST(OnlineFit, RebasingOnEveryDriftConvergesToSilence) {
  // The loop's discipline: rebase after acting on each drift. During the
  // regime transition the mixed window keeps improving on the previous
  // (still partly stale) null, so a handful of drifts in a row is
  // legitimate — but once the window is purely post-switch the detector
  // must go quiet, and the whole episode must stay bounded (no
  // thrashing).
  const double rate = 1.0 / 3600.0;
  std::vector<double> gaps =
      draw(model::FailureDistSpec::weibull(0.7), rate, 400, 13);
  const std::vector<double> after =
      draw(model::FailureDistSpec::weibull(1.4), rate, 1600, 14);
  gaps.insert(gaps.end(), after.begin(), after.end());

  std::size_t last_drift_at = 0;
  std::size_t drifts = 0;
  {
    OnlineFit fit =
        make_detector(model::FailureDistSpec::weibull(0.7), rate);
    for (std::size_t i = 0; i < gaps.size(); ++i) {
      const DriftDecision d = fit.add(gaps[i]);
      if (!d.drift) continue;
      ++drifts;
      last_drift_at = i + 1;
      fit.rebase();
    }
  }
  ASSERT_GE(drifts, 1u);
  EXPECT_LE(drifts, 8u);  // a re-plan episode, not a storm
  // Quiet once the window is fully post-switch: nothing fires in the
  // last ~1200 stationary events.
  EXPECT_LE(last_drift_at, 400u + 3u * OnlineFitOptions{}.window);
}

TEST(OnlineFit, NoDriftBeforeMinEventsOrWithoutBaseline) {
  OnlineFitOptions opt;
  opt.min_events = 64;
  OnlineFit no_baseline{opt};  // never set_baseline
  const std::vector<double> gaps =
      draw(model::FailureDistSpec::weibull(2.0), 1.0 / 60.0, 300, 15);
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    const DriftDecision d = no_baseline.add(gaps[i]);
    if (i + 1 < opt.min_events) {
      EXPECT_FALSE(d.refit_ran);
    }
    EXPECT_FALSE(d.drift);
  }
}

}  // namespace
}  // namespace ayd::stats
