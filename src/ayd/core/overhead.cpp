#include "ayd/core/overhead.hpp"

#include <cmath>

#include "ayd/core/expected_time.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::core {

double pattern_overhead(const model::System& sys, const Pattern& pattern) {
  validate(pattern);
  const double e = expected_pattern_time(sys, pattern);
  return e / (pattern.period * sys.speedup(pattern.procs));
}

double log_pattern_overhead(const model::System& sys,
                            const Pattern& pattern) {
  validate(pattern);
  const double log_e = log_expected_pattern_time(sys, pattern);
  return log_e - std::log(pattern.period) -
         std::log(sys.speedup(pattern.procs));
}

double expected_makespan(const model::System& sys, const Pattern& pattern,
                         const model::Application& app) {
  AYD_REQUIRE(app.total_work >= 0.0, "total work must be >= 0");
  return pattern_overhead(sys, pattern) * app.total_work;
}

}  // namespace ayd::core
