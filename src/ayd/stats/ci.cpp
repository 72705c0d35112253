#include "ayd/stats/ci.hpp"

#include <cmath>
#include <functional>
#include <limits>
#include <unordered_map>

#include "ayd/math/roots.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::stats {

namespace {

/// Continued fraction for the regularised incomplete beta (Lentz's
/// algorithm). Converges fast for x < (a + 1)/(a + b + 2); the caller
/// applies the symmetry I_x(a,b) = 1 - I_{1-x}(b,a) otherwise.
double beta_continued_fraction(double a, double b, double x) {
  constexpr double kTiny = 1e-300;
  constexpr double kEps = 1e-15;
  const double qab = a + b;
  const double qap = a + 1.0;
  const double qam = a - 1.0;
  double c = 1.0;
  double d = 1.0 - qab * x / qap;
  if (std::abs(d) < kTiny) d = kTiny;
  d = 1.0 / d;
  double h = d;
  for (int m = 1; m <= 300; ++m) {
    const auto md = static_cast<double>(m);
    const double m2 = 2.0 * md;
    double aa = md * (b - md) * x / ((qam + m2) * (a + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    h *= d * c;
    aa = -(a + md) * (qab + md) * x / ((a + m2) * (qap + m2));
    d = 1.0 + aa * d;
    if (std::abs(d) < kTiny) d = kTiny;
    c = 1.0 + aa / c;
    if (std::abs(c) < kTiny) c = kTiny;
    d = 1.0 / d;
    const double del = d * c;
    h *= del;
    if (std::abs(del - 1.0) < kEps) break;
  }
  return h;
}

/// ln|Gamma(x)| via the reentrant lgamma_r (same implementation, same
/// bits): std::lgamma writes glibc's global signgam, a data race when
/// confidence intervals are computed on several threads.
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

/// Regularised incomplete beta I_x(a, b) for a, b > 0, x in [0, 1].
double incomplete_beta(double a, double b, double x) {
  if (x <= 0.0) return 0.0;
  if (x >= 1.0) return 1.0;
  const double ln_front = log_gamma(a + b) - log_gamma(a) - log_gamma(b) +
                          a * std::log(x) + b * std::log1p(-x);
  const double front = std::exp(ln_front);
  if (x < (a + 1.0) / (a + b + 2.0)) {
    return front * beta_continued_fraction(a, b, x) / a;
  }
  return 1.0 - front * beta_continued_fraction(b, a, 1.0 - x) / b;
}

/// Exact Student-t CDF: P(T_df <= t) through the incomplete beta.
double student_t_cdf(double t, double df) {
  const double x = df / (df + t * t);
  const double tail = 0.5 * incomplete_beta(0.5 * df, 0.5, x);
  return t >= 0.0 ? 1.0 - tail : tail;
}

/// Upper-tail quantile (p > 0.5) by inverting the exact CDF: bracket
/// [0, hi] with hi grown geometrically from the normal seed (the t
/// quantile always exceeds the normal one in the upper tail), then Brent.
double solve_upper_quantile(double p, double df) {
  double hi = std::max(1.0, 2.0 * normal_quantile(p));
  for (int i = 0; i < 2048 && student_t_cdf(hi, df) < p; ++i) hi *= 2.0;

  math::RootOptions opt;
  opt.x_tol = 1e-12;
  opt.f_tol = 1e-14;
  const math::RootResult root = math::brent_root(
      [&](double t) { return student_t_cdf(t, df) - p; }, 0.0, hi, opt);
  return root.x;
}

/// Exact-bits key of one quantile question.
struct QuantileKey {
  double p;
  double df;
  bool operator==(const QuantileKey& o) const {
    return p == o.p && df == o.df;
  }
};

struct QuantileKeyHash {
  std::size_t operator()(const QuantileKey& k) const {
    return std::hash<double>{}(k.p) * 31u ^ std::hash<double>{}(k.df);
  }
};

/// Entries a thread keeps before starting over. Callers ask for a few
/// levels at degrees of freedom up to a replica cap (thousands), so a
/// long-lived thread stays far below it; the bound only caps memory.
constexpr std::size_t kQuantileCacheCap = 1u << 14;

}  // namespace

double student_t_quantile(double p, double df) {
  AYD_REQUIRE(p > 0.0 && p < 1.0, "t quantile level must be in (0,1)");
  AYD_REQUIRE(df > 0.0 && std::isfinite(df),
              "t degrees of freedom must be finite and > 0");
  if (p == 0.5) return 0.0;
  // Symmetry: solve in the upper tail only.
  if (p < 0.5) return -student_t_quantile(1.0 - p, df);

  // Memoised per thread by exact (p, df): every adaptive replication
  // round and paired test asks again for the same few quantiles, and the
  // inversion costs microseconds. The cached double is the value the
  // solver returns, so results are bit-identical with or without it.
  thread_local std::unordered_map<QuantileKey, double, QuantileKeyHash> memo;
  const QuantileKey key{p, df};
  if (const auto it = memo.find(key); it != memo.end()) return it->second;
  const double t = solve_upper_quantile(p, df);
  if (memo.size() >= kQuantileCacheCap) memo.clear();
  memo.emplace(key, t);
  return t;
}

ConfidenceInterval mean_ci_student(const RunningStats& stats, double level) {
  AYD_REQUIRE(level > 0.0 && level < 1.0, "CI level must be in (0,1)");
  const double mean = stats.mean();
  if (stats.count() < 2) return {mean, mean, level};
  const double t =
      student_t_quantile(0.5 + 0.5 * level,
                         static_cast<double>(stats.count() - 1));
  const double hw = t * stats.stderr_mean();
  return {mean - hw, mean + hw, level};
}

Summary summarize_student(const RunningStats& stats, double ci_level) {
  Summary s = summarize(stats, ci_level);
  s.ci = mean_ci_student(stats, ci_level);
  return s;
}

double relative_half_width(const ConfidenceInterval& ci, double mean) {
  if (mean == 0.0) return std::numeric_limits<double>::infinity();
  return ci.half_width() / std::abs(mean);
}

BatchMeans::BatchMeans(std::size_t batch_size) : batch_size_(batch_size) {
  AYD_REQUIRE(batch_size >= 1, "batch size must be >= 1");
}

void BatchMeans::add(double x) {
  total_.add(x);
  batch_sum_ += x;
  if (++in_batch_ == batch_size_) {
    batch_means_.add(batch_sum_ / static_cast<double>(batch_size_));
    batch_sum_ = 0.0;
    in_batch_ = 0;
  }
}

double BatchMeans::variance_of_mean() const {
  const std::size_t b = batch_means_.count();
  if (b < 2) return 0.0;
  return batch_means_.variance() / static_cast<double>(b);
}

double BatchMeans::stderr_mean() const {
  return std::sqrt(variance_of_mean());
}

ConfidenceInterval BatchMeans::ci(double level) const {
  AYD_REQUIRE(level > 0.0 && level < 1.0, "CI level must be in (0,1)");
  const double m = mean();
  const std::size_t b = batch_means_.count();
  if (b < 2) return {m, m, level};
  const double t = student_t_quantile(0.5 + 0.5 * level,
                                      static_cast<double>(b - 1));
  const double hw = t * stderr_mean();
  return {m - hw, m + hw, level};
}

}  // namespace ayd::stats
