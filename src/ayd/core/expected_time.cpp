#include "ayd/core/expected_time.hpp"

#include <cmath>
#include <limits>

#include "ayd/math/special.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::core {

namespace {

/// Per-pattern rate/cost bundle at a fixed P.
struct Params {
  double lf;  ///< fail-stop rate λf_P
  double ls;  ///< silent rate λs_P
  double c;   ///< checkpoint cost C_P
  double r;   ///< recovery cost R_P
  double v;   ///< verification cost V_P
  double d;   ///< downtime D
};

Params params_at(const model::System& sys, double procs) {
  return {sys.fail_stop_rate(procs), sys.silent_rate(procs),
          sys.checkpoint_cost(procs), sys.recovery_cost(procs),
          sys.verification_cost(procs), sys.downtime()};
}

double recovery_expectation(const Params& p) {
  return math::expected_completion_time(p.lf, p.d, p.r);
}

double work_expectation(const Params& p, double t) {
  const double tv = t + p.v;
  const double b = p.ls * t;        // silent exposure of the pattern
  const double w = p.lf * tv;       // fail-stop exposure of work+verify
  const double er = recovery_expectation(p);
  // E(T+V) = e^b·expm1(w)·M + expm1(w + b)·E(R); every term nonnegative.
  // The recovery term is dropped when E(R) == 0 so that an overflowed
  // expm1(w+b) == inf cannot turn 0 into NaN.
  const double rec_term = er == 0.0 ? 0.0 : std::expm1(w + b) * er;
  return std::exp(b) * math::expected_completion_time(p.lf, p.d, tv) +
         rec_term;
}

double checkpoint_expectation(const Params& p, double etv) {
  const double a = p.lf * p.c;
  if (a == 0.0) {
    // No fail-stop exposure while checkpointing (λf == 0 or C == 0): the
    // checkpoint deterministically costs C. Returning early also avoids
    // 0·inf = NaN when etv has overflowed to infinity.
    return p.c;
  }
  // E(C) = expm1(a)·(M·e^{λf·R} + E(T+V))
  //      = C·exprel(a)·e^{λf·R} + D·expm1(a)·e^{λf·R} + expm1(a)·E(T+V).
  const double er_exp = std::exp(p.lf * p.r);
  return p.c * math::expm1_over_x(a) * er_exp +
         p.d * std::expm1(a) * er_exp + std::expm1(a) * etv;
}

}  // namespace

double expected_pattern_time(const model::System& sys,
                             const Pattern& pattern) {
  validate(pattern);
  const Params p = params_at(sys, pattern.procs);
  const double etv = work_expectation(p, pattern.period);
  return etv + checkpoint_expectation(p, etv);
}

double log_expected_pattern_time(const model::System& sys,
                                 const Pattern& pattern) {
  validate(pattern);
  const Params p = params_at(sys, pattern.procs);
  const double t = pattern.period;

  // Prefer the exact linear-space value whenever it fits in a double.
  const double linear = expected_pattern_time(sys, pattern);
  if (std::isfinite(linear)) {
    AYD_ENSURE(linear > 0.0, "expected time must be positive");
    return std::log(linear);
  }

  if (p.lf == 0.0) {
    // E = e^b(T+V+R) − R + C with b huge; the −R + C correction is far
    // below double epsilon relative to the leading term.
    const double b = p.ls * t;
    return b + std::log(t + p.v + p.r);
  }

  // From Prop. 1 with rC = λf·C, rR = λf·R, w = λf(T+V), b = λs·T and
  // x = rC + w + b:
  //   E = M·e^{rR + x}·(1 − e^{−x} + e^{−rR − w − b} − e^{−rR − w})
  // so log E = log M + rR + x + log1p(u) with u in (−1, 1].
  const double rc = p.lf * p.c;
  const double rr = p.lf * p.r;
  const double w = p.lf * (t + p.v);
  const double b = p.ls * t;
  const double x = rc + w + b;
  const double u =
      -std::exp(-x) + std::exp(-rr - w - b) - std::exp(-rr - w);
  AYD_ENSURE(u > -1.0, "log-space expected time: positivity violated");
  const double log_m = std::log(1.0 / p.lf + p.d);
  return log_m + rr + x + std::log1p(u);
}

}  // namespace ayd::core
