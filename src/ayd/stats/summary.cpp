#include "ayd/stats/summary.hpp"

#include <cmath>

#include "ayd/rng/distributions.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::stats {

double normal_quantile(double p) { return rng::detail::normal_quantile(p); }

ConfidenceInterval mean_ci(double mean, double stderr_mean, double level) {
  AYD_REQUIRE(level > 0.0 && level < 1.0, "CI level must be in (0,1)");
  AYD_REQUIRE(stderr_mean >= 0.0, "standard error must be nonnegative");
  const double z = normal_quantile(0.5 + 0.5 * level);
  return {mean - z * stderr_mean, mean + z * stderr_mean, level};
}

Summary summarize(const RunningStats& stats, double ci_level) {
  Summary s;
  s.count = stats.count();
  s.mean = stats.mean();
  s.stddev = stats.stddev();
  s.stderr_mean = stats.stderr_mean();
  s.min = stats.min();
  s.max = stats.max();
  s.ci = mean_ci(s.mean, s.stderr_mean, ci_level);
  return s;
}

LinearFit linear_fit(std::span<const double> xs, std::span<const double> ys) {
  AYD_REQUIRE(xs.size() == ys.size(), "linear_fit size mismatch");
  AYD_REQUIRE(xs.size() >= 2, "linear_fit needs at least two points");
  const auto n = static_cast<double>(xs.size());
  double sx = 0, sy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    sx += xs[i];
    sy += ys[i];
  }
  const double mx = sx / n;
  const double my = sy / n;
  double sxx = 0, sxy = 0, syy = 0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double dx = xs[i] - mx;
    const double dy = ys[i] - my;
    sxx += dx * dx;
    sxy += dx * dy;
    syy += dy * dy;
  }
  AYD_REQUIRE(sxx > 0.0, "linear_fit requires non-constant x");
  LinearFit fit;
  fit.slope = sxy / sxx;
  fit.intercept = my - fit.slope * mx;
  fit.r_squared = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
  return fit;
}

}  // namespace ayd::stats
