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

/// student_t_quantile over df = 1..1024 at the usual CI levels, in a
/// fixed order.
std::vector<double> quantile_table() {
  std::vector<double> out;
  for (const double p : {0.95, 0.975, 0.995}) {
    for (int df = 1; df <= 1024; ++df) {
      out.push_back(student_t_quantile(p, static_cast<double>(df)));
    }
  }
  return out;
}

TEST(StudentTQuantile, MemoisedAnswersEqualFreshOnesBitwise) {
  // The memo is per thread, so a new thread's first pass solves every
  // quantile afresh; its second pass is served from the memo. Four
  // threads do both at once (the concurrency tier runs this under TSan)
  // and must agree with a fresh pass bit for bit.
  std::vector<double> fresh;
  std::thread([&fresh] { fresh = quantile_table(); }).join();
  ASSERT_EQ(fresh.size(), 3u * 1024u);

  std::vector<std::vector<double>> first(4), second(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < first.size(); ++t) {
    threads.emplace_back([&first, &second, t] {
      first[t] = quantile_table();
      second[t] = quantile_table();
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t t = 0; t < first.size(); ++t) {
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      ASSERT_EQ(first[t][i], fresh[i]) << "thread " << t << ", entry " << i;
      ASSERT_EQ(second[t][i], fresh[i]) << "thread " << t << ", entry " << i;
    }
  }
  // The lower tail shares the upper tail's memo entry.
  EXPECT_EQ(student_t_quantile(0.025, 7.0), -student_t_quantile(0.975, 7.0));
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

}  // namespace
}  // namespace ayd::stats
