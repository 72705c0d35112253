// First-order (Young/Daly-style) approximations: the paper's Section III.
//
// * first_order_overhead — the Taylor expansion of H(T,P) used in the
//   proof of Theorem 1.
// * optimal_period_first_order — Theorem 1:
//     T*_P = sqrt( (V_P + C_P) / (λf_P/2 + λs_P) ).
// * solve_first_order — Theorems 2 & 3 and the case analysis of
//   Section III-D, returning the closed-form optimal (P*, T*, H*) when it
//   exists and a structured explanation when it does not (case 3 and the
//   perfectly-parallel case 4 have no bounded first-order optimum).
//
// Validity (Section III-B): the approximations hold while P = Θ(λ^{-x})
// with x < 1/2 (linear checkpoint cost) or x < 1 (otherwise), and
// T = Θ(λ^{-y}) with y < 1 − x. The solver reports the asymptotic orders
// so callers (and the λ-sweep benches) can check the regime.

#pragma once

#include <string>

#include "ayd/core/pattern.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/model/system.hpp"

namespace ayd::core {

/// First-order expected overhead (dropping o(λ) terms):
///   H(T, P) ≈ H(P)·( (V+C)/T + (λf/2 + λs)·T + 1 ).
[[nodiscard]] double first_order_overhead(const model::System& sys,
                                          const Pattern& pattern);

/// Theorem 1: the first-order optimal period for a fixed processor count.
/// Returns +inf when the platform is error-free (never checkpoint).
[[nodiscard]] double optimal_period_first_order(const model::System& sys,
                                                double procs);

/// Equation (8): expected overhead at the Theorem-1 period,
///   H(T*_P, P) = H(P)·(1 + 2·sqrt((λf/2 + λs)(V + C))).
[[nodiscard]] double optimal_overhead_fixed_procs(const model::System& sys,
                                                  double procs);

/// Closed-form joint optimum (Theorems 2 and 3).
struct FirstOrderSolution {
  /// True when a bounded first-order optimum exists (cases 1 and 2 with
  /// α > 0); false for case 3, perfectly parallel jobs, and non-Amdahl
  /// profiles.
  bool has_optimum = false;
  double procs = 0.0;     ///< P* (continuous; clamp to >= 1 before use)
  double period = 0.0;    ///< T*
  double overhead = 0.0;  ///< H(T*, P*) predicted by the theorem
  model::FirstOrderCase analysis_case =
      model::FirstOrderCase::kConstantCost;
  double coefficient = 0.0;  ///< c (Thm 2), d (Thm 3) or h (case 3)
  std::string note;          ///< human-readable explanation
};

/// Applies Theorem 2 (linear checkpoint cost), Theorem 3 (constant
/// checkpoint+verification cost), or reports the unbounded cases.
/// Requires an Amdahl-family speedup profile.
[[nodiscard]] FirstOrderSolution solve_first_order(const model::System& sys);

/// Asymptotic orders (P* ~ λ^p, T* ~ λ^t, H* − α ~ λ^h) predicted by the
/// analysis, used to draw the reference slopes of Figures 5 and 6.
struct AsymptoticOrders {
  double p_exponent = 0.0;
  double t_exponent = 0.0;
  double h_exponent = 0.0;
};

/// Orders for an Amdahl application with α > 0 (Theorems 2/3):
/// case 1 → (−1/4, −1/2, 1/4); case 2 → (−1/3, −1/3, 1/3).
[[nodiscard]] AsymptoticOrders asymptotic_orders(model::FirstOrderCase c);

/// Numerically observed orders for a perfectly parallel job (paper,
/// Section IV-B4): case 1 → (−1/2, −1/2, 1/2); cases 2/3 → (−1, 0, 1).
[[nodiscard]] AsymptoticOrders asymptotic_orders_alpha0(
    model::FirstOrderCase c);

}  // namespace ayd::core
