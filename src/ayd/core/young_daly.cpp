#include "ayd/core/young_daly.hpp"

#include <cmath>
#include <limits>

#include "ayd/util/contracts.hpp"

namespace ayd::core {

double daly_period_vc(const model::System& sys, double procs) {
  AYD_REQUIRE(std::isfinite(procs) && procs >= 1.0,
              "processor count must be finite and >= 1");
  const double rate =
      sys.fail_stop_rate(procs) / 2.0 + sys.silent_rate(procs);
  if (rate == 0.0) return std::numeric_limits<double>::infinity();
  const double cost = sys.resilience_cost(procs);
  AYD_REQUIRE(cost > 0.0, "resilience cost must be positive");
  const double x2 = cost * rate;  // dimensionless exposure squared
  if (x2 >= 1.0) return 1.0 / rate;  // Daly's large-cost fallback (T = μ)
  const double x = std::sqrt(x2);
  return std::sqrt(cost / rate) * (1.0 + x / 3.0 + x2 / 9.0) - cost;
}

}  // namespace ayd::core
