#include "ayd/core/first_order.hpp"

#include <cmath>
#include <limits>

#include "ayd/util/contracts.hpp"

namespace ayd::core {

double first_order_overhead(const model::System& sys,
                            const Pattern& pattern) {
  validate(pattern);
  const double p = pattern.procs;
  const double t = pattern.period;
  const double lf = sys.fail_stop_rate(p);
  const double ls = sys.silent_rate(p);
  const double vc = sys.resilience_cost(p);
  return sys.error_free_overhead(p) *
         (vc / t + (lf / 2.0 + ls) * t + 1.0);
}

double optimal_period_first_order(const model::System& sys, double procs) {
  AYD_REQUIRE(std::isfinite(procs) && procs >= 1.0,
              "processor count must be finite and >= 1");
  const double lf = sys.fail_stop_rate(procs);
  const double ls = sys.silent_rate(procs);
  const double weighted = lf / 2.0 + ls;
  if (weighted == 0.0) return std::numeric_limits<double>::infinity();
  const double vc = sys.resilience_cost(procs);
  AYD_REQUIRE(vc > 0.0,
              "Theorem 1 requires a positive checkpoint+verification cost");
  return std::sqrt(vc / weighted);
}

double optimal_overhead_fixed_procs(const model::System& sys, double procs) {
  AYD_REQUIRE(std::isfinite(procs) && procs >= 1.0,
              "processor count must be finite and >= 1");
  const double lf = sys.fail_stop_rate(procs);
  const double ls = sys.silent_rate(procs);
  const double weighted = lf / 2.0 + ls;
  const double vc = sys.resilience_cost(procs);
  return sys.error_free_overhead(procs) *
         (1.0 + 2.0 * std::sqrt(weighted * vc));
}

FirstOrderSolution solve_first_order(const model::System& sys) {
  FirstOrderSolution sol;
  const model::CaseInfo info = model::classify(sys.costs());
  sol.analysis_case = info.first_order_case;
  sol.coefficient = info.coefficient;

  if (!sys.speedup_model().is_amdahl_family()) {
    sol.note =
        "first-order closed forms require an Amdahl speedup profile; use "
        "the numerical optimiser";
    return sol;
  }
  const double alpha = *sys.speedup_model().sequential_fraction();
  // (f/2 + s)·λ_ind, the weighting every theorem shares.
  const double wl = sys.failure().weighted_lambda();
  if (wl == 0.0) {
    sol.note = "error-free platform: overhead decreases monotonically in P "
               "(enroll all processors, never checkpoint)";
    return sol;
  }
  if (alpha == 0.0) {
    sol.note =
        "perfectly parallel job (alpha = 0): no bounded first-order "
        "optimum (Section III-D case 4); use the numerical optimiser";
    return sol;
  }

  switch (info.first_order_case) {
    case model::FirstOrderCase::kLinearCheckpoint: {
      // Theorem 2: C_P = cP + o(P).
      const double c = info.coefficient;
      sol.has_optimum = true;
      sol.procs = std::pow(1.0 / (c * wl), 0.25) *
                  std::sqrt((1.0 - alpha) / (2.0 * alpha));
      sol.period = std::sqrt(c / wl);
      sol.overhead =
          alpha + 2.0 * std::pow(4.0 * alpha * alpha * (1.0 - alpha) *
                                     (1.0 - alpha) * c * wl,
                                 0.25);
      sol.note = "Theorem 2 (linear checkpoint cost): P* = Θ(λ^{-1/4}), "
                 "T* = Θ(λ^{-1/2})";
      return sol;
    }
    case model::FirstOrderCase::kConstantCost: {
      // Theorem 3: C_P + V_P = d + o(1).
      const double d = info.coefficient;
      sol.has_optimum = true;
      sol.procs = std::pow(1.0 / (d * wl), 1.0 / 3.0) *
                  std::pow((1.0 - alpha) / alpha, 2.0 / 3.0);
      sol.period = std::pow(d * d / wl, 1.0 / 3.0) *
                   std::pow(alpha / (1.0 - alpha), 1.0 / 3.0);
      sol.overhead =
          alpha + 3.0 * std::pow(alpha * alpha * (1.0 - alpha) * d * wl,
                                 1.0 / 3.0);
      sol.note = "Theorem 3 (constant checkpoint+verification cost): "
                 "P* = T* = Θ(λ^{-1/3})";
      return sol;
    }
    case model::FirstOrderCase::kDecreasingCost: {
      sol.note =
          "case 3 (C_P + V_P = h/P): overhead decreases monotonically in P "
          "within the first-order validity bound; use the numerical "
          "optimiser";
      return sol;
    }
  }
  AYD_ENSURE(false, "unreachable first-order case");
}

AsymptoticOrders asymptotic_orders(model::FirstOrderCase c) {
  switch (c) {
    case model::FirstOrderCase::kLinearCheckpoint:
      return {-0.25, -0.5, 0.25};
    case model::FirstOrderCase::kConstantCost:
      return {-1.0 / 3.0, -1.0 / 3.0, 1.0 / 3.0};
    case model::FirstOrderCase::kDecreasingCost:
      // No first-order optimum; the validity bound itself is λ^{-1/2}.
      return {-0.5, -0.5, 0.5};
  }
  AYD_ENSURE(false, "unreachable first-order case");
}

AsymptoticOrders asymptotic_orders_alpha0(model::FirstOrderCase c) {
  switch (c) {
    case model::FirstOrderCase::kLinearCheckpoint:
      return {-0.5, -0.5, 0.5};
    case model::FirstOrderCase::kConstantCost:
    case model::FirstOrderCase::kDecreasingCost:
      return {-1.0, 0.0, 1.0};
  }
  AYD_ENSURE(false, "unreachable first-order case");
}

}  // namespace ayd::core
