#include "ayd/math/special.hpp"

#include <algorithm>
#include <cmath>

#include "ayd/util/contracts.hpp"

namespace ayd::math {

double expm1_over_x(double x) {
  AYD_REQUIRE_FINITE(x);
  // For |x| below ~1e-8 the quadratic Taylor term is below double epsilon
  // relative to 1, so the two-term series is exact to rounding.
  if (std::abs(x) < 1e-8) return 1.0 + 0.5 * x;
  return std::expm1(x) / x;
}

double expected_time_lost(double rate, double w) {
  AYD_REQUIRE(rate >= 0 && w >= 0, "rate and w must be nonnegative");
  const double x = rate * w;
  // E_lost = 1/rate - w/expm1(x) = (w/x) - w/expm1(x) = w*(1/x - 1/expm1(x)).
  // The bracketed difference -> 1/2 as x -> 0; series: 1/2 - x/12 + x^3/720.
  if (x < 1e-4) {
    return w * (0.5 - x / 12.0 + x * x * x / 720.0);
  }
  if (x > 700.0) {
    // expm1(x) would overflow; the w/expm1(x) term is then exactly 0 in
    // double precision.
    return 1.0 / rate;
  }
  return 1.0 / rate - w / std::expm1(x);
}

double expected_completion_time(double rate, double downtime, double w) {
  const double x = rate * w;
  return w * expm1_over_x(x) + downtime * std::expm1(x);
}

double rel_diff(double a, double b, double floor) {
  if (a == b) return 0.0;
  const double scale = std::max({std::abs(a), std::abs(b), floor});
  return std::abs(a - b) / scale;
}

}  // namespace ayd::math
