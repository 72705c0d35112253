// Unit and property tests for the pluggable failure distributions:
// quantile∘cdf identity, sample-mean convergence to the analytic mean,
// spec round-trips through the CLI syntax and JSON, and trace-replay
// round-trips through the failure-log CSV format.

#include "ayd/model/failure_dist.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include <gtest/gtest.h>

#include "ayd/io/json.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/sim/trace.hpp"
#include "ayd/stats/running.hpp"
#include "ayd/util/error.hpp"

#include "support/failure_log.hpp"

namespace ayd::model {
namespace {

std::vector<FailureDistSpec> continuous_specs() {
  return {FailureDistSpec::exponential(), FailureDistSpec::weibull(0.7),
          FailureDistSpec::weibull(1.5), FailureDistSpec::lognormal(0.8),
          FailureDistSpec::lognormal(1.5)};
}

TEST(FailureDistSpec, ToStringParseRoundTrip) {
  for (const auto& spec :
       {FailureDistSpec::exponential(), FailureDistSpec::weibull(0.7),
        FailureDistSpec::weibull(2.25), FailureDistSpec::lognormal(1.2)}) {
    EXPECT_EQ(FailureDistSpec::parse(spec.to_string()), spec)
        << spec.to_string();
  }
}

TEST(FailureDistSpec, ParseAcceptsCliVariants) {
  EXPECT_EQ(FailureDistSpec::parse("exp"), FailureDistSpec::exponential());
  EXPECT_EQ(FailureDistSpec::parse("poisson"),
            FailureDistSpec::exponential());
  EXPECT_EQ(FailureDistSpec::parse("Weibull:k=0.7"),
            FailureDistSpec::weibull(0.7));
  EXPECT_EQ(FailureDistSpec::parse("weibull:0.7"),
            FailureDistSpec::weibull(0.7));
  EXPECT_EQ(FailureDistSpec::parse("weibull:shape=1.5"),
            FailureDistSpec::weibull(1.5));
  EXPECT_EQ(FailureDistSpec::parse("lognormal:sigma=1.2"),
            FailureDistSpec::lognormal(1.2));
  EXPECT_EQ(FailureDistSpec::parse("lognorm:1.2"),
            FailureDistSpec::lognormal(1.2));
}

TEST(FailureDistSpec, ParseRejectsBadInput) {
  EXPECT_THROW((void)FailureDistSpec::parse("gaussian"),
               util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::parse("weibull"),
               util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::parse("weibull:q=2"),
               util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::parse("weibull:k=zero"),
               util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::parse("weibull:k=-1"),
               util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::parse("exponential:rate=2"),
               util::InvalidArgument);
  // Traces carry data, not just parameters; parse() points at the loader.
  EXPECT_THROW((void)FailureDistSpec::parse("trace:log.csv"),
               util::InvalidArgument);
}

TEST(FailureDistSpec, ValidatesParameters) {
  EXPECT_THROW((void)FailureDistSpec::weibull(0.0), util::InvalidArgument);
  // Out-of-range shapes would overflow tgamma in the scale factor and
  // silently produce 0/NaN samples; they must be rejected up front.
  EXPECT_THROW((void)FailureDistSpec::weibull(1e-3), util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::weibull(1e3), util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::lognormal(-1.0),
               util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::lognormal(11.0),
               util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::trace_replay({}),
               util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::trace_replay({0.0, 0.0}),
               util::InvalidArgument);
  EXPECT_THROW((void)FailureDistSpec::trace_replay({1.0, -2.0}),
               util::InvalidArgument);
}

TEST(FailureDistribution, QuantileCdfIsIdentity) {
  const double rate = 1e-5;
  for (const auto& spec : continuous_specs()) {
    const auto dist = spec.instantiate(rate);
    for (const double u :
         {0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999}) {
      const double x = dist->quantile(u);
      ASSERT_TRUE(std::isfinite(x)) << spec.to_string() << " u=" << u;
      EXPECT_NEAR(dist->cdf(x), u, 1e-9)
          << spec.to_string() << " u=" << u;
      // ... and back: quantile(cdf(x)) recovers x.
      EXPECT_NEAR(dist->quantile(dist->cdf(x)), x,
                  1e-6 * std::abs(x) + 1e-12)
          << spec.to_string() << " u=" << u;
    }
  }
}

TEST(FailureDistribution, CdfIsMonotoneAndPdfMatchesSlope) {
  const double rate = 2e-4;
  for (const auto& spec : continuous_specs()) {
    const auto dist = spec.instantiate(rate);
    double prev = -1.0;
    for (const double u : {0.05, 0.2, 0.4, 0.6, 0.8, 0.95}) {
      const double x = dist->quantile(u);
      const double f = dist->cdf(x);
      EXPECT_GT(f, prev) << spec.to_string();
      prev = f;
      // Central difference of the CDF approximates the density.
      const double h = 1e-5 * x;
      const double slope = (dist->cdf(x + h) - dist->cdf(x - h)) / (2 * h);
      EXPECT_NEAR(dist->pdf(x), slope,
                  1e-4 * dist->pdf(x) + 1e-12)
          << spec.to_string() << " u=" << u;
    }
  }
}

TEST(FailureDistribution, MeanIsInverseRateForEveryShape) {
  const double rate = 3.7e-6;
  auto specs = continuous_specs();
  specs.push_back(FailureDistSpec::trace_replay({5.0, 11.0, 2.5, 40.0}));
  for (const auto& spec : specs) {
    const auto dist = spec.instantiate(rate);
    EXPECT_NEAR(dist->mean(), 1.0 / rate, 1e-6 / rate) << spec.to_string();
    EXPECT_DOUBLE_EQ(dist->rate(), rate) << spec.to_string();
  }
}

TEST(FailureDistribution, SampleMeanConvergesToAnalyticMean) {
  const double rate = 1e-3;
  auto specs = continuous_specs();
  specs.push_back(
      FailureDistSpec::trace_replay({120.0, 800.0, 55.0, 1800.0, 300.0}));
  for (const auto& spec : specs) {
    const auto dist = spec.instantiate(rate);
    rng::RngStream rng(0xA4D2016ULL);
    stats::RunningStats s;
    for (int i = 0; i < 40000; ++i) s.add(dist->sample(rng));
    // Loose 5-sigma band around the analytic mean (the lognormal with
    // sigma = 1.5 is heavy-tailed, hence the sample stddev in the bound).
    const double tol = 5.0 * s.stddev() / std::sqrt(40000.0);
    EXPECT_NEAR(s.mean(), dist->mean(), tol) << spec.to_string();
  }
}

TEST(FailureDistribution, SamplesAreNonNegative) {
  const double rate = 1e-2;
  for (const auto& spec : continuous_specs()) {
    const auto dist = spec.instantiate(rate);
    rng::RngStream rng(7);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_GE(dist->sample(rng), 0.0) << spec.to_string();
    }
  }
}

TEST(FailureDistribution, ExponentialSamplesMatchHistoricalStream) {
  // The exponential implementation must consume the RNG word-for-word
  // like RngStream::next_exponential always did — this is what keeps all
  // pre-existing experiment outputs bit-identical.
  const double rate = 4e-6;
  const auto dist = FailureDistSpec::exponential().instantiate(rate);
  rng::RngStream a(42);
  rng::RngStream b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(dist->sample(a), b.next_exponential(rate));
  }
}

TEST(FailureDistribution, TraceReplayRescalesToTargetRate) {
  const auto spec = FailureDistSpec::trace_replay({1.0, 2.0, 3.0, 6.0});
  const auto dist = spec.instantiate(1.0 / 600.0);  // mean 600 s
  EXPECT_NEAR(dist->mean(), 600.0, 1e-9);
  // Gaps keep their relative pattern: the scaled support is {200, 400,
  // 600, 1200}.
  EXPECT_NEAR(dist->quantile(0.0), 200.0, 1e-9);
  EXPECT_NEAR(dist->quantile(0.99), 1200.0, 1e-9);
  rng::RngStream rng(11);
  for (int i = 0; i < 200; ++i) {
    const double g = dist->sample(rng);
    EXPECT_TRUE(g == 200.0 || g == 400.0 || g == 600.0 || g == 1200.0)
        << g;
  }
}

TEST(FailureLogCsv, TraceReplayRoundTripsThroughCsv) {
  const std::vector<double> gaps{86400.0, 3612.25, 1.0e-3, 7200.5,
                                 0.0,     123456.789};
  const std::string path =
      ::testing::TempDir() + "/ayd_failure_log_roundtrip.csv";
  sim::write_failure_log_csv(path, gaps);
  const std::vector<double> back = sim::read_failure_log_csv(path);
  ASSERT_EQ(back.size(), gaps.size());
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    EXPECT_DOUBLE_EQ(back[i], gaps[i]) << i;  // lossless round-trip
  }
  EXPECT_EQ(FailureDistSpec::trace_replay(back, path),
            FailureDistSpec::trace_replay(gaps, path));
  std::remove(path.c_str());
}

TEST(FailureLogCsv, ParsesAbsoluteFailureTimes) {
  const auto gaps = sim::parse_failure_log_csv(
      "failure_time\n100\n250\n250\n1000\n");
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_DOUBLE_EQ(gaps[0], 150.0);
  EXPECT_DOUBLE_EQ(gaps[1], 0.0);
  EXPECT_DOUBLE_EQ(gaps[2], 750.0);
}

TEST(FailureLogCsv, ParsesHeaderlessGaps) {
  const auto gaps = sim::parse_failure_log_csv("10\n20.5\n30\n");
  ASSERT_EQ(gaps.size(), 3u);
  EXPECT_DOUBLE_EQ(gaps[1], 20.5);
}

TEST(FailureLogCsv, HeaderSurvivesLeadingBlankLines) {
  const auto gaps = sim::parse_failure_log_csv("\n\ngap_seconds\n100\n200\n");
  ASSERT_EQ(gaps.size(), 2u);
  EXPECT_DOUBLE_EQ(gaps[0], 100.0);
}

TEST(FailureLogCsv, RejectsMalformedLogs) {
  EXPECT_THROW((void)sim::parse_failure_log_csv("gap_seconds\n"),
               util::InvalidArgument);
  EXPECT_THROW((void)sim::parse_failure_log_csv("gap_seconds\nabc\n"),
               util::InvalidArgument);
  EXPECT_THROW((void)sim::parse_failure_log_csv("failure_time\n100\n"),
               util::InvalidArgument);
  EXPECT_THROW((void)sim::parse_failure_log_csv("failure_time\n100\n50\n"),
               util::InvalidArgument);
  EXPECT_THROW((void)sim::read_failure_log_csv("/nonexistent/log.csv"),
               util::IoError);
}

TEST(FailureDistSpec, WritesJson) {
  const auto json_of = [](const FailureDistSpec& spec) {
    std::ostringstream os;
    io::JsonWriter w(os);
    spec.write_json(w);
    return os.str();
  };
  EXPECT_EQ(json_of(FailureDistSpec::exponential()),
            R"({"kind":"exponential"})");
  // Doubles go out at full %.17g precision (0.7 is not representable).
  EXPECT_EQ(json_of(FailureDistSpec::weibull(0.75)),
            R"({"kind":"weibull","shape":0.75})");
  EXPECT_EQ(json_of(FailureDistSpec::trace_replay({1.5, 2.0}, "log.csv")),
            R"({"kind":"trace","source":"log.csv","gaps":[1.5,2]})");
}

}  // namespace
}  // namespace ayd::model
