#include "support/ks.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ayd/util/contracts.hpp"

namespace ayd::stats {

namespace {

/// Kolmogorov survival function Q(λ) = 2 Σ_{j>=1} (-1)^{j-1} exp(-2 j² λ²).
double kolmogorov_q(double lambda) {
  if (lambda < 1e-3) return 1.0;
  double sum = 0.0;
  double sign = 1.0;
  for (int j = 1; j <= 100; ++j) {
    const double term = std::exp(-2.0 * j * j * lambda * lambda);
    sum += sign * term;
    if (term < 1e-12) break;
    sign = -sign;
  }
  return std::clamp(2.0 * sum, 0.0, 1.0);
}

}  // namespace

KsResult ks_test(std::span<const double> sample,
                 const std::function<double(double)>& cdf) {
  AYD_REQUIRE(!sample.empty(), "ks_test on empty sample");
  std::vector<double> xs(sample.begin(), sample.end());
  std::sort(xs.begin(), xs.end());
  const auto n = static_cast<double>(xs.size());
  double d = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double F = cdf(xs[i]);
    AYD_REQUIRE(F >= 0.0 && F <= 1.0, "cdf must map into [0,1]");
    const double d_plus = (static_cast<double>(i) + 1.0) / n - F;
    const double d_minus = F - static_cast<double>(i) / n;
    d = std::max({d, d_plus, d_minus});
  }
  KsResult r;
  r.statistic = d;
  r.n = xs.size();
  const double sqrt_n = std::sqrt(n);
  const double lambda = (sqrt_n + 0.12 + 0.11 / sqrt_n) * d;
  r.p_value = kolmogorov_q(lambda);
  return r;
}

double exponential_cdf(double x, double rate) {
  AYD_REQUIRE(rate > 0.0, "exponential_cdf requires positive rate");
  if (x <= 0.0) return 0.0;
  return -std::expm1(-rate * x);
}

double uniform_cdf(double x, double lo, double hi) {
  AYD_REQUIRE(lo < hi, "uniform_cdf requires lo < hi");
  if (x <= lo) return 0.0;
  if (x >= hi) return 1.0;
  return (x - lo) / (hi - lo);
}

}  // namespace ayd::stats
