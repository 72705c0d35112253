// Deterministic tier-1 tests of the online estimator's numerics (no
// `statistical` label: nothing here depends on a sample being typical).
//   * The Weibull shape solver (Newton on cached logs) against a reference
//     written here: bisection on the pow-based profile score of
//     mean-normalized gaps, to 1e-14. Also the exact clamp edges and the
//     inputs that must stay invalid.
//   * OnlineFit's log and baseline caches: every scheduled refit must
//     equal a from-scratch fit and GLR over the same window, bit for bit,
//     across a ring wrap, a set_baseline() and several rebase() calls.

#include "ayd/stats/online_fit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <deque>
#include <gtest/gtest.h>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "ayd/model/failure_dist.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/stats/ci.hpp"
#include "ayd/stats/running.hpp"
#include "ayd/util/error.hpp"

namespace ayd::stats {
namespace {

constexpr double kShapeMin = 0.05;
constexpr double kShapeMax = 20.0;

std::vector<double> draw(const model::FailureDistSpec& spec, double rate,
                         std::size_t n, std::uint64_t stream) {
  const auto dist = spec.instantiate(rate);
  rng::RngStream rng(0x5EED0F17ULL, stream);
  std::vector<double> gaps;
  gaps.reserve(n);
  for (std::size_t i = 0; i < n; ++i) gaps.push_back(dist->sample(rng));
  return gaps;
}

// -- Reference Weibull shape ---------------------------------------------

/// g(k) = sum(y^k ln y)/sum(y^k) - 1/k - mean(ln y) with y = x/mean(x),
/// every term taken with std::pow and std::log.
double pow_score(const std::vector<double>& ys, double mean_log_y,
                 double k) {
  double sum_pow = 0.0;
  double sum_pow_log = 0.0;
  for (double y : ys) {
    const double p = std::pow(y, k);
    sum_pow += p;
    sum_pow_log += p * std::log(y);
  }
  return sum_pow_log / sum_pow - 1.0 / k - mean_log_y;
}

/// Shape MLE by bisection on pow_score to a 1e-14 bracket, with the
/// estimator's clamp: 0.05 when the score is already >= 0 there, 20 when
/// it is still <= 0 there.
double reference_shape(const std::vector<double>& xs) {
  double sum = 0.0;
  for (double x : xs) sum += x;
  const double mean = sum / static_cast<double>(xs.size());
  std::vector<double> ys;
  double sum_log_y = 0.0;
  for (double x : xs) {
    ys.push_back(x / mean);
    sum_log_y += std::log(ys.back());
  }
  const double mean_log_y = sum_log_y / static_cast<double>(ys.size());
  if (pow_score(ys, mean_log_y, kShapeMin) >= 0.0) return kShapeMin;
  if (pow_score(ys, mean_log_y, kShapeMax) <= 0.0) return kShapeMax;
  double lo = kShapeMin;
  double hi = kShapeMax;
  while (hi - lo > 1e-14) {
    const double mid = 0.5 * (lo + hi);
    if (mid <= lo || mid >= hi) break;
    (pow_score(ys, mean_log_y, mid) < 0.0 ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

TEST(WeibullShapeSolver, AgreesWithPowBisectionReference) {
  std::uint64_t stream = 1;
  std::size_t clamped_high = 0;
  for (const double shape : {0.06, 0.3, 0.7, 1.0, 1.4, 3.0, 8.0, 25.0}) {
    for (const std::size_t n : {2u, 3u, 16u, 256u, 5000u}) {
      const std::vector<double> gaps = draw(
          model::FailureDistSpec::weibull(shape), 1.0 / 3600.0, n, stream++);
      const MleFit fit = fit_weibull_mle(gaps);
      ASSERT_EQ(fit.count, n);  // no draw underflowed to 0
      ASSERT_TRUE(fit.valid) << "shape " << shape << " n " << n;
      const double want = reference_shape(gaps);
      if (want == kShapeMin || want == kShapeMax) {
        EXPECT_EQ(fit.shape, want) << "shape " << shape << " n " << n;
        clamped_high += want == kShapeMax ? 1 : 0;
      } else {
        EXPECT_NEAR(fit.shape, want, 1e-9 * want)
            << "shape " << shape << " n " << n;
      }
    }
  }
  // k = 25 is beyond the clamp: large windows of it must hit 20 exactly.
  EXPECT_GE(clamped_high, 3u);
}

TEST(WeibullShapeSolver, ClampEdgesAreExact) {
  // Two gaps 200 decades apart: the score is positive even at k = 0.05.
  const std::vector<double> heavy = {1e-100, 1e100};
  ASSERT_EQ(reference_shape(heavy), kShapeMin);
  const MleFit low = fit_weibull_mle(heavy);
  ASSERT_TRUE(low.valid);
  EXPECT_EQ(low.shape, kShapeMin);

  // A near-spike: the score is still negative at k = 20.
  const std::vector<double> spike = {3600.0, 3600.0 * (1.0 + 1e-9)};
  ASSERT_EQ(reference_shape(spike), kShapeMax);
  const MleFit high = fit_weibull_mle(spike);
  ASSERT_TRUE(high.valid);
  EXPECT_EQ(high.shape, kShapeMax);
}

TEST(WeibullShapeSolver, AllEqualWindowGivesTheUpperClamp) {
  for (const std::size_t n : {2u, 3u, 256u}) {
    const std::vector<double> same(n, 0.1);
    const MleFit fit = fit_weibull_mle(same);
    ASSERT_TRUE(fit.valid) << n;
    EXPECT_EQ(fit.shape, kShapeMax) << n;
    EXPECT_NEAR(fit.scale, 0.1, 1e-12) << n;
  }
}

TEST(WeibullShapeSolver, InvalidInputsStayInvalid) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_FALSE(fit_weibull_mle({}).valid);
  const std::vector<double> one = {3600.0};
  EXPECT_FALSE(fit_weibull_mle(one).valid);
  const std::vector<double> one_usable = {3600.0, 0.0, -1.0, nan, inf, -inf};
  const MleFit fit = fit_weibull_mle(one_usable);
  EXPECT_FALSE(fit.valid);
  EXPECT_EQ(fit.count, 1u);
  const std::vector<double> none = {0.0, -5.0, nan, inf};
  EXPECT_FALSE(fit_weibull_mle(none).valid);
  EXPECT_FALSE(fit_best_mle(none).valid);
}

// -- OnlineFit caches ------------------------------------------------------

void expect_same_fit(const MleFit& a, const MleFit& b) {
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.shape, b.shape);
  EXPECT_EQ(a.scale, b.scale);
  EXPECT_EQ(a.rate, b.rate);
  EXPECT_EQ(a.log_likelihood, b.log_likelihood);
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.valid, b.valid);
}

OnlineFit::LogDensity weibull_density(double shape, double rate) {
  std::shared_ptr<const model::FailureDistribution> dist =
      model::FailureDistSpec::weibull(shape).instantiate(rate);
  return [dist](double x) {
    const double p = dist->pdf(x);
    return p > 0.0 ? std::log(p) : kLogDensityFloor;
  };
}

TEST(OnlineFitCaches, EveryRefitEqualsAFromScratchRecomputation) {
  OnlineFitOptions opt;
  opt.window = 64;
  opt.min_events = 16;
  opt.refit_interval = 4;
  const double rate = 1.0 / 3600.0;
  // Three regimes, each several windows long, so the ring wraps many
  // times and drifts can fire.
  std::vector<double> gaps =
      draw(model::FailureDistSpec::weibull(0.7), rate, 200, 41);
  for (const auto& [spec, stream] :
       {std::pair{model::FailureDistSpec::weibull(1.6), 42},
        std::pair{model::FailureDistSpec::exponential(), 43}}) {
    const std::vector<double> more = draw(spec, 2.0 * rate, 200, stream);
    gaps.insert(gaps.end(), more.begin(), more.end());
  }
  // Gaps the estimator must ignore, interleaved.
  gaps.insert(gaps.begin() + 70, 0.0);
  gaps.insert(gaps.begin() + 150, -3.0);
  gaps.insert(gaps.begin() + 330, std::numeric_limits<double>::quiet_NaN());

  OnlineFit online(opt);
  OnlineFit::LogDensity baseline = weibull_density(0.7, rate);
  online.set_baseline(baseline);

  std::deque<double> window;  // accepted gaps, oldest first
  std::size_t refits = 0;
  std::size_t glr_checks = 0;
  std::size_t rebases = 0;
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    const double gap = gaps[i];
    const DriftDecision d = online.add(gap);
    if (std::isfinite(gap) && gap > 0.0) {
      window.push_back(gap);
      if (window.size() > opt.window) window.pop_front();
    }
    if (i == 260) {
      // Swap the deployed model mid-stream: every cached baseline term
      // must be recomputed against the new density.
      baseline = weibull_density(1.6, 2.0 * rate);
      online.set_baseline(baseline);
    }
    if (!d.refit_ran) continue;
    ++refits;

    const std::vector<double> samples(window.begin(), window.end());
    const MleFit scratch = fit_best_mle(samples);
    expect_same_fit(d.fit, scratch);
    expect_same_fit(online.fit(), scratch);
    if (!d.fit.valid) continue;

    RunningStats llr;
    for (double x : samples) {
      llr.add(d.fit.log_pdf(x) - std::max(baseline(x), kLogDensityFloor));
    }
    const ConfidenceInterval ci = mean_ci_student(llr, opt.drift_ci_level);
    EXPECT_EQ(d.mean_llr, llr.mean()) << "event " << i;
    EXPECT_EQ(d.llr_ci_lo, ci.lo) << "event " << i;
    EXPECT_EQ(d.drift, ci.lo > 0.0 && llr.mean() >= opt.min_mean_llr);
    ++glr_checks;

    // Re-base on every drift (the loop's discipline) and, besides, at a
    // few fixed refits, so rebase() also hits windows with no drift.
    if (d.drift || refits % 25 == 0) {
      online.rebase();
      const MleFit deployed = d.fit;
      baseline = [deployed](double x) { return deployed.log_pdf(x); };
      ++rebases;
    }
  }
  EXPECT_GT(refits, 100u);
  EXPECT_EQ(glr_checks, refits);
  EXPECT_GE(rebases, 4u);
}

TEST(OnlineFitCaches, ConstructorRefusesAnEmptyWindowOrRefitInterval) {
  OnlineFitOptions no_window;
  no_window.window = 0;
  EXPECT_THROW(OnlineFit{no_window}, util::InvalidArgument);
  OnlineFitOptions no_interval;
  no_interval.refit_interval = 0;
  EXPECT_THROW(OnlineFit{no_interval}, util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::stats
