#include "support/core_reference.hpp"

#include <cmath>

#include "ayd/util/contracts.hpp"

namespace ayd::core {

namespace {

void check_args(double mtbf, double cost) {
  AYD_REQUIRE(mtbf > 0.0, "platform MTBF must be positive");
  AYD_REQUIRE(cost >= 0.0, "checkpoint cost must be nonnegative");
}

}  // namespace

double expected_pattern_time_direct(const model::System& sys,
                                    const Pattern& pattern) {
  validate(pattern);
  const double procs = pattern.procs;
  const double lf = sys.fail_stop_rate(procs);
  const double c = sys.checkpoint_cost(procs);
  const double r = sys.recovery_cost(procs);
  const double v = sys.verification_cost(procs);
  const double t = pattern.period;
  const double b = sys.silent_rate(procs) * t;
  if (lf == 0.0) {
    // λf → 0 limit of Prop. 1: E = e^{λs·T}(T+V) + (e^{λs·T} − 1)R + C.
    return std::exp(b) * (t + v) + std::expm1(b) * r + c;
  }
  const double m = 1.0 / lf + sys.downtime();
  const double x = lf * (c + t + v) + b;
  return m * (std::exp(lf * r) * std::expm1(x) -
              std::exp(lf * c) * std::expm1(b));
}

double young_period(double platform_mtbf, double checkpoint_cost) {
  check_args(platform_mtbf, checkpoint_cost);
  return std::sqrt(2.0 * platform_mtbf * checkpoint_cost);
}

double daly_period(double platform_mtbf, double checkpoint_cost) {
  check_args(platform_mtbf, checkpoint_cost);
  const double half_ratio = checkpoint_cost / (2.0 * platform_mtbf);
  if (half_ratio >= 1.0) return platform_mtbf;
  const double base = std::sqrt(2.0 * platform_mtbf * checkpoint_cost);
  return base * (1.0 + std::sqrt(half_ratio) / 3.0 + half_ratio / 9.0) -
         checkpoint_cost;
}

double young_overhead(double platform_mtbf, double checkpoint_cost) {
  check_args(platform_mtbf, checkpoint_cost);
  return std::sqrt(2.0 * checkpoint_cost / platform_mtbf);
}

}  // namespace ayd::core
