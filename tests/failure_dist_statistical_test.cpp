// Statistical validation of the failure-distribution samplers (CTest
// label: "statistical"; CI runs this tier in its own job).
//
// Two sampling paths reach a FailureDistribution in production:
//  * the fast backend draws `dist->sample(rng)` directly (quantile
//    inversion), and
//  * the DES backend schedules `clock + dist->sample(rng)` arrivals in a
//    PendingSet slot and recovers them in pop order.
// For each distribution we KS-test 10k fixed-seed samples from both
// paths against the analytic CDF — a far stronger check than matching a
// couple of moments, and exactly the check the paper's methodology
// (replicated simulation vs analysis) rests on.

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ayd/model/failure_dist.hpp"
#include "ayd/rng/simd.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/sim/pending_set.hpp"

#include "support/ks.hpp"

namespace ayd::model {
namespace {

constexpr std::size_t kSamples = 10000;
constexpr std::uint64_t kSeed = 0xA4D2016ULL;
constexpr double kPValueFloor = 1e-3;

/// The fast-backend path: direct quantile-inversion draws.
std::vector<double> sample_fast_path(const FailureDistribution& dist,
                                     std::uint64_t stream_id) {
  rng::RngStream rng(kSeed, stream_id);
  std::vector<double> xs(kSamples);
  for (double& x : xs) x = dist.sample(rng);
  return xs;
}

/// The DES-backend path: each arrival scheduled in a pending-set slot from
/// a moving clock, popped, and the clock renewed at the pop time.
std::vector<double> sample_des_path(const FailureDistribution& dist,
                                    std::uint64_t stream_id) {
  rng::RngStream rng(kSeed, stream_id);
  sim::PendingSet<1> pending;
  double clock = 0.0;
  std::vector<double> xs;
  xs.reserve(kSamples);
  for (std::size_t i = 0; i < kSamples; ++i) {
    pending.schedule(0, clock + dist.sample(rng));
    const auto event = pending.pop();
    if (!event.has_value()) break;
    xs.push_back(event->time - clock);
    clock = event->time;  // renewal: the next arrival clock starts here
  }
  EXPECT_EQ(xs.size(), kSamples);
  return xs;
}

void expect_ks_passes(const FailureDistSpec& spec, double rate) {
  const auto dist = spec.instantiate(rate);
  const auto cdf = [&](double x) { return dist->cdf(x); };

  const auto fast = sample_fast_path(*dist, 1);
  const auto fast_ks = stats::ks_test(fast, cdf);
  EXPECT_GT(fast_ks.p_value, kPValueFloor)
      << spec.to_string() << " fast path: D=" << fast_ks.statistic;

  const auto des = sample_des_path(*dist, 2);
  const auto des_ks = stats::ks_test(des, cdf);
  EXPECT_GT(des_ks.p_value, kPValueFloor)
      << spec.to_string() << " DES path: D=" << des_ks.statistic;
}

TEST(FailureDistKs, ExponentialBothPaths) {
  expect_ks_passes(FailureDistSpec::exponential(), 1e-5);
  expect_ks_passes(FailureDistSpec::exponential(), 0.25);
}

TEST(FailureDistKs, WeibullBurstyBothPaths) {
  expect_ks_passes(FailureDistSpec::weibull(0.7), 1e-5);
}

TEST(FailureDistKs, WeibullWearOutBothPaths) {
  expect_ks_passes(FailureDistSpec::weibull(1.5), 3e-4);
}

TEST(FailureDistKs, LogNormalBothPaths) {
  expect_ks_passes(FailureDistSpec::lognormal(1.2), 1e-5);
  expect_ks_passes(FailureDistSpec::lognormal(0.5), 2e-3);
}

/// The SIMD sampling path: bulk unit variates through the tier-dispatched
/// vectorized kernels, scaled by from_unit_bulk — exactly what the DES
/// refill and the variate pool run in production under the AVX2 tier.
std::vector<double> sample_simd_path(const FailureDistribution& dist,
                                     std::uint64_t stream_id) {
  rng::RngStream rng(kSeed, stream_id);
  std::vector<double> z(kSamples), xs(kSamples);
  dist.sample_units_fast(rng, z.data(), kSamples);
  dist.from_unit_bulk(z.data(), xs.data(), kSamples);
  return xs;
}

TEST(FailureDistKs, Avx2TierSamplingPassesForEveryAnalyticKind) {
  if (!rng::simd::avx2_available()) {
    GTEST_SKIP() << "AVX2 not available on this host";
  }
  rng::simd::force_tier(rng::simd::Tier::kAvx2);
  struct Case {
    FailureDistSpec spec;
    double rate;
  };
  for (const Case& c : {Case{FailureDistSpec::exponential(), 1e-5},
                        Case{FailureDistSpec::weibull(0.7), 1e-5},
                        Case{FailureDistSpec::weibull(1.5), 3e-4},
                        Case{FailureDistSpec::lognormal(1.2), 1e-5},
                        Case{FailureDistSpec::lognormal(0.5), 2e-3}}) {
    const auto dist = c.spec.instantiate(c.rate);
    const auto cdf = [&](double x) { return dist->cdf(x); };
    const auto xs = sample_simd_path(*dist, 3);
    const auto ks = stats::ks_test(xs, cdf);
    EXPECT_GT(ks.p_value, kPValueFloor)
        << c.spec.to_string() << " SIMD path: D=" << ks.statistic;
  }
  rng::simd::clear_forced_tier();
}

TEST(FailureDistKs, TraceReplayMatchesSourceEmpiricalCdf) {
  // KS p-values assume a continuous CDF; for the discrete empirical
  // distribution we bound the sup-distance between the resampled and the
  // source CDF directly (Dvoretzky–Kiefer–Wolfowitz at ~1e-7 confidence
  // for n = 10k gives ~0.028).
  const std::vector<double> source{300.0,  960.0,   55.0,  7200.0, 1800.0,
                                   120.0,  86400.0, 600.0, 43.0,   3600.0,
                                   9000.0, 240.0};
  const auto spec = FailureDistSpec::trace_replay(source, "synthetic");
  const double rate = 1e-4;
  const auto dist = spec.instantiate(rate);

  // The distribution's support: the source gaps rescaled to the target
  // mean. Evaluate the CDFs at the midpoints *between* atoms — the DES
  // path recovers gaps as (clock + gap) - clock, whose last-ulp fuzz
  // would make comparisons exactly at an atom ambiguous.
  const double source_mean = [&] {
    double s = 0.0;
    for (const double g : source) s += g;
    return s / static_cast<double>(source.size());
  }();
  std::vector<double> atoms = source;
  for (double& a : atoms) a *= (1.0 / rate) / source_mean;
  std::sort(atoms.begin(), atoms.end());
  std::vector<double> eval_points{0.5 * atoms.front()};
  for (std::size_t i = 0; i + 1 < atoms.size(); ++i) {
    eval_points.push_back(0.5 * (atoms[i] + atoms[i + 1]));
  }
  eval_points.push_back(2.0 * atoms.back());

  for (const auto& xs : {sample_fast_path(*dist, 3),
                         sample_des_path(*dist, 4)}) {
    std::vector<double> sorted = xs;
    std::sort(sorted.begin(), sorted.end());
    double max_gap = 0.0;
    for (const double v : eval_points) {
      const double expected = dist->cdf(v);
      const auto upper = std::upper_bound(sorted.begin(), sorted.end(), v);
      const double observed =
          static_cast<double>(upper - sorted.begin()) /
          static_cast<double>(sorted.size());
      max_gap = std::max(max_gap, std::abs(observed - expected));
    }
    EXPECT_LT(max_gap, 0.03);
  }
}

TEST(FailureDistKs, QuantileGridMatchesEmpiricalQuantiles) {
  // Cross-check the two ends of the interface against each other: the
  // empirical quantiles of fast-path samples track the analytic
  // quantile() the DES scheduling relies on.
  for (const auto& spec :
       {FailureDistSpec::weibull(0.7), FailureDistSpec::lognormal(1.2)}) {
    const auto dist = spec.instantiate(1e-5);
    auto xs = sample_fast_path(*dist, 5);
    std::sort(xs.begin(), xs.end());
    for (const double u : {0.1, 0.25, 0.5, 0.75, 0.9}) {
      const double analytic = dist->quantile(u);
      const double empirical =
          xs[static_cast<std::size_t>(u * static_cast<double>(xs.size()))];
      // The empirical quantile's asymptotic standard error is
      // sqrt(u(1-u)/n) / pdf(q); allow a 4-sigma band.
      const double se = std::sqrt(u * (1.0 - u) / kSamples) /
                        dist->pdf(analytic);
      EXPECT_NEAR(empirical, analytic, 4.0 * se)
          << spec.to_string() << " u=" << u;
    }
  }
}

}  // namespace
}  // namespace ayd::model
