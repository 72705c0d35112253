#include "ayd/stats/ci.hpp"

#include <cmath>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "ayd/rng/stream.hpp"
#include "ayd/util/error.hpp"

namespace ayd::stats {
namespace {

TEST(StudentTQuantile, MatchesReferenceTables) {
  // Standard two-sided 95% / 90% / 99% critical values.
  EXPECT_NEAR(student_t_quantile(0.975, 1.0), 12.7062047364, 1e-6);
  EXPECT_NEAR(student_t_quantile(0.975, 2.0), 4.30265272991, 1e-7);
  EXPECT_NEAR(student_t_quantile(0.975, 5.0), 2.57058183661, 1e-8);
  EXPECT_NEAR(student_t_quantile(0.975, 10.0), 2.22813885196, 1e-8);
  EXPECT_NEAR(student_t_quantile(0.95, 5.0), 2.01504837333, 1e-8);
  EXPECT_NEAR(student_t_quantile(0.995, 10.0), 3.16927267261, 1e-8);
  EXPECT_NEAR(student_t_quantile(0.975, 30.0), 2.04227245630, 1e-8);
}

TEST(StudentTQuantile, SymmetricAboutZero) {
  for (const double df : {1.0, 3.0, 7.0, 29.0}) {
    EXPECT_DOUBLE_EQ(student_t_quantile(0.5, df), 0.0);
    EXPECT_NEAR(student_t_quantile(0.025, df),
                -student_t_quantile(0.975, df), 1e-9);
  }
}

TEST(StudentTQuantile, ConvergesToNormalQuantile) {
  EXPECT_NEAR(student_t_quantile(0.975, 1e6), normal_quantile(0.975), 1e-4);
  EXPECT_NEAR(student_t_quantile(0.9, 1e6), normal_quantile(0.9), 1e-4);
}

TEST(StudentTQuantile, RejectsInvalidArguments) {
  EXPECT_THROW((void)student_t_quantile(0.0, 5.0), util::InvalidArgument);
  EXPECT_THROW((void)student_t_quantile(1.0, 5.0), util::InvalidArgument);
  EXPECT_THROW((void)student_t_quantile(0.9, 0.0), util::InvalidArgument);
}

TEST(MeanCiStudent, WiderThanNormalTheoryAtSmallN) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 4.0, 8.0, 3.0}) s.add(x);
  const ConfidenceInterval t_ci = mean_ci_student(s, 0.95);
  const ConfidenceInterval z_ci = mean_ci(s.mean(), s.stderr_mean(), 0.95);
  EXPECT_GT(t_ci.half_width(), z_ci.half_width());
  // Ratio of the critical values: t_{0.975,4} / z_{0.975}.
  EXPECT_NEAR(t_ci.half_width() / z_ci.half_width(),
              student_t_quantile(0.975, 4.0) / normal_quantile(0.975), 1e-9);
}

TEST(MeanCiStudent, DegenerateBelowTwoSamples) {
  RunningStats s;
  s.add(3.5);
  const ConfidenceInterval ci = mean_ci_student(s, 0.95);
  EXPECT_DOUBLE_EQ(ci.lo, 3.5);
  EXPECT_DOUBLE_EQ(ci.hi, 3.5);
}

TEST(MeanCiStudent, ConcurrentCallsMatchTheSerialResultBitwise) {
  // The concurrency tier runs this under TSan: the Student-t path
  // evaluates log-gamma, which must not touch shared global state.
  RunningStats s;
  for (const double x : {1.0, 2.0, 4.0, 8.0, 3.0, 5.5}) s.add(x);
  const ConfidenceInterval serial = mean_ci_student(s, 0.95);
  std::vector<ConfidenceInterval> got(4);
  std::vector<std::thread> threads;
  for (ConfidenceInterval& out : got) {
    threads.emplace_back([&s, &out] {
      for (int i = 0; i < 200; ++i) out = mean_ci_student(s, 0.95);
    });
  }
  for (std::thread& t : threads) t.join();
  for (const ConfidenceInterval& ci : got) {
    EXPECT_EQ(ci.lo, serial.lo);
    EXPECT_EQ(ci.hi, serial.hi);
  }
}

TEST(MeanCiStudent, CoverageProbabilityOnNormalSamples) {
  // 95% intervals from n = 8 standard-normal samples must cover the true
  // mean (0) about 95% of the time — and the z interval, with the same
  // data, must undercover (it is why the adaptive driver uses t). Fixed
  // seed: fully deterministic.
  rng::RngStream rng(0x51C1u, 0);
  const int trials = 3000;
  const int n = 8;
  int t_covered = 0;
  int z_covered = 0;
  for (int trial = 0; trial < trials; ++trial) {
    RunningStats s;
    for (int i = 0; i < n; ++i) {
      s.add(normal_quantile(rng.next_uniform01()));
    }
    if (mean_ci_student(s, 0.95).contains(0.0)) ++t_covered;
    if (mean_ci(s.mean(), s.stderr_mean(), 0.95).contains(0.0)) ++z_covered;
  }
  const double t_cov = static_cast<double>(t_covered) / trials;
  const double z_cov = static_cast<double>(z_covered) / trials;
  EXPECT_GT(t_cov, 0.93);
  EXPECT_LT(t_cov, 0.97);
  EXPECT_LT(z_cov, t_cov);  // normal theory undercovers at n = 8
}

TEST(RelativeHalfWidth, MatchesDefinitionAndGuardsZeroMean) {
  const ConfidenceInterval ci{0.9, 1.1, 0.95};
  EXPECT_NEAR(relative_half_width(ci, 2.0), 0.05, 1e-12);
  EXPECT_NEAR(relative_half_width(ci, -2.0), 0.05, 1e-12);
  EXPECT_TRUE(std::isinf(relative_half_width(ci, 0.0)));
}

TEST(BatchMeans, BatchSizeOneMatchesPlainStats) {
  BatchMeans bm(1);
  RunningStats plain;
  for (const double x : {0.4, 1.7, 2.9, 0.1, 5.5, 3.2}) {
    bm.add(x);
    plain.add(x);
  }
  EXPECT_EQ(bm.batches(), plain.count());
  EXPECT_DOUBLE_EQ(bm.mean(), plain.mean());
  EXPECT_NEAR(bm.variance_of_mean(),
              plain.variance() / static_cast<double>(plain.count()), 1e-15);
}

TEST(BatchMeans, TailBatchInMeanButNotVariance) {
  BatchMeans bm(4);
  for (int i = 0; i < 10; ++i) bm.add(static_cast<double>(i));
  EXPECT_EQ(bm.count(), 10u);
  EXPECT_EQ(bm.batches(), 2u);  // two full batches; 2-sample tail pending
  EXPECT_DOUBLE_EQ(bm.mean(), 4.5);
}

TEST(BatchMeans, AbsorbsSerialCorrelationTheNaiveEstimatorMisses) {
  // A strongly autocorrelated series: each independent draw is repeated
  // 8 times. The naive iid standard error is ~sqrt(8) too small; batch
  // means with batches spanning a full repeat block recover the honest
  // scale.
  rng::RngStream rng(0xBA7C4u, 1);
  BatchMeans bm(8);
  RunningStats naive;
  for (int i = 0; i < 400; ++i) {
    const double x = normal_quantile(rng.next_uniform01());
    for (int r = 0; r < 8; ++r) {
      bm.add(x);
      naive.add(x);
    }
  }
  const double naive_se = naive.stderr_mean();
  EXPECT_GT(bm.stderr_mean(), 2.0 * naive_se);
  EXPECT_LT(bm.stderr_mean(), 4.5 * naive_se);  // ~sqrt(8) ≈ 2.83 expected
  const ConfidenceInterval ci = bm.ci(0.95);
  EXPECT_GT(ci.half_width(), 0.0);
  EXPECT_TRUE(ci.contains(bm.mean()));
}

TEST(BatchMeans, RejectsZeroBatchSize) {
  EXPECT_THROW(BatchMeans bm(0), util::InvalidArgument);
}

}  // namespace
}  // namespace ayd::stats
