#include "ayd/core/optimizer.hpp"

#include <algorithm>
#include <cmath>

#include "ayd/core/first_order.hpp"
#include "ayd/core/overhead.hpp"
#include "ayd/math/minimize.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::core {

namespace {

/// Brent's stopping rule: relative tolerance on log T and on log P, and
/// its iteration cap.
constexpr double kPeriodTolerance = 1e-10;
constexpr double kProcsTolerance = 1e-9;
constexpr int kMaxIterations = 200;

/// Initial period guess: the Theorem-1 period when errors exist, else the
/// geometric middle of the domain.
double period_hint(const model::System& sys, double procs) {
  const double lf = sys.fail_stop_rate(procs);
  const double ls = sys.silent_rate(procs);
  if (lf / 2.0 + ls > 0.0 && sys.resilience_cost(procs) > 0.0) {
    const double t = optimal_period_first_order(sys, procs);
    if (std::isfinite(t)) return std::clamp(t, kMinPeriod, kMaxPeriod);
  }
  return std::sqrt(kMinPeriod * kMaxPeriod);
}

}  // namespace

PeriodOptimum optimal_period(const model::System& sys, double procs) {
  AYD_REQUIRE(std::isfinite(procs) && procs >= 1.0,
              "processor count must be finite and >= 1");

  const double lo = std::log(kMinPeriod);
  const double hi = std::log(kMaxPeriod);
  const auto objective = [&](double log_t) {
    return log_pattern_overhead(sys, Pattern{std::exp(log_t), procs});
  };

  math::MinimizeOptions mopt;
  mopt.x_tol = kPeriodTolerance;
  mopt.max_iterations = kMaxIterations;
  const double hint = std::log(period_hint(sys, procs));
  const math::MinimizeResult res =
      math::minimize_with_hint(objective, lo, hi, hint, mopt);

  PeriodOptimum out;
  out.period = std::exp(res.x);
  out.log_overhead = res.fx;
  out.overhead = std::exp(res.fx);
  out.converged = res.converged;
  out.at_boundary = res.at_boundary;
  out.evaluations = res.evaluations;
  return out;
}

AllocationOptimum optimal_allocation(const model::System& sys,
                                     const AllocationSearchOptions& opt) {
  AYD_REQUIRE(opt.max_procs > kMinProcs, "invalid processor search domain");

  const double lo = std::log(kMinProcs);
  const double hi = std::log(opt.max_procs);
  int outer_evals = 0;
  const auto objective = [&](double log_p) {
    ++outer_evals;
    return optimal_period(sys, std::exp(log_p)).log_overhead;
  };

  // Seed from the closed form when a theorem applies; otherwise start in
  // the geometric middle (the bracketing walk finds its own way).
  double hint = std::sqrt(kMinProcs * opt.max_procs);
  const FirstOrderSolution fo = solve_first_order(sys);
  if (fo.has_optimum && fo.procs >= kMinProcs &&
      fo.procs <= opt.max_procs) {
    hint = fo.procs;
  }

  math::MinimizeOptions mopt;
  mopt.x_tol = kProcsTolerance;
  mopt.max_iterations = kMaxIterations;
  const math::MinimizeResult res =
      math::minimize_with_hint(objective, lo, hi, std::log(hint), mopt);

  AllocationOptimum out;
  out.procs_continuous = std::exp(res.x);
  out.converged = res.converged;
  out.at_boundary = res.at_boundary;

  double best_p = out.procs_continuous;
  PeriodOptimum best = optimal_period(sys, best_p);
  if (opt.refine_integer && best_p < 9e15 && !out.at_boundary) {
    const double p_floor = std::max(kMinProcs, std::floor(best_p));
    const double p_ceil = std::min(opt.max_procs, std::ceil(best_p));
    PeriodOptimum cand_floor = optimal_period(sys, p_floor);
    if (cand_floor.log_overhead < best.log_overhead ||
        p_floor == std::floor(best_p)) {
      // Prefer integral counts: keep floor unless ceil is strictly better.
      best = cand_floor;
      best_p = p_floor;
    }
    if (p_ceil != p_floor) {
      const PeriodOptimum cand_ceil = optimal_period(sys, p_ceil);
      if (cand_ceil.log_overhead < best.log_overhead) {
        best = cand_ceil;
        best_p = p_ceil;
      }
    }
  }

  out.procs = best_p;
  out.period = best.period;
  out.overhead = best.overhead;
  out.log_overhead = best.log_overhead;
  // A boundary hit by the *inner* period search is just as load-bearing
  // as one on P: the reported (T, P) then sits on a search-domain edge
  // and must not masquerade as a converged interior optimum.
  out.at_boundary = out.at_boundary || best.at_boundary;
  out.outer_evaluations = outer_evals;
  return out;
}

}  // namespace ayd::core
