#include "ayd/core/baselines.hpp"

#include <cmath>

#include "ayd/core/first_order.hpp"
#include "ayd/core/overhead.hpp"
#include "ayd/math/minimize.hpp"
#include "ayd/math/special.hpp"

namespace ayd::core {

model::System fail_stop_only_system(const model::System& sys) {
  const model::FailureModel& fm = sys.failure();
  const model::FailureModel fail_stop_only(
      fm.lambda_ind() * fm.fail_stop_fraction(), 1.0);
  return model::System(fail_stop_only, sys.costs(), sys.downtime(),
                       sys.speedup_model());
}

double silent_blind_period(const model::System& sys, double procs) {
  return optimal_period_first_order(fail_stop_only_system(sys), procs);
}

namespace {

/// The relaxation's starting allocation, the upper edge of its P domain,
/// the relative change in (T, P) that declares a fixpoint, and its round
/// cap.
constexpr double kInitialProcs = 64.0;
constexpr double kMaxProcs = 1e7;
constexpr double kTolerance = 1e-8;
constexpr int kMaxRounds = 100;

}  // namespace

JinRelaxationResult jin_relaxation(const model::System& sys) {
  JinRelaxationResult out;
  double p = kInitialProcs;
  double t = optimal_period(sys, p).period;

  const double lo = std::log(kMinProcs);
  const double hi = std::log(kMaxProcs);
  math::MinimizeOptions mopt;
  mopt.x_tol = kTolerance;

  for (int round = 1; round <= kMaxRounds; ++round) {
    out.rounds = round;
    // T-step: optimal period for the current allocation.
    const PeriodOptimum t_step = optimal_period(sys, p);
    const double t_new = t_step.period;

    // P-step: optimal allocation for the *fixed* period t_new.
    const auto objective = [&](double log_p) {
      return log_pattern_overhead(sys, Pattern{t_new, std::exp(log_p)});
    };
    const math::MinimizeResult p_step = math::minimize_with_hint(
        objective, lo, hi, std::log(std::clamp(p, kMinProcs, kMaxProcs)),
        mopt);
    const double p_new = std::exp(p_step.x);

    const bool settled =
        math::rel_diff(t_new, t) <= kTolerance &&
        math::rel_diff(p_new, p) <= kTolerance;
    t = t_new;
    p = p_new;
    if (settled) {
      out.converged = true;
      break;
    }
  }

  out.procs = p;
  out.period = t;
  out.overhead = pattern_overhead(sys, Pattern{t, p});
  return out;
}

}  // namespace ayd::core
