// Reference formulas the test suite checks the library's core against.
//
// * expected_pattern_time_direct — Proposition 1 evaluated verbatim, the
//   independent cross-check of core::expected_pattern_time's cancellation-
//   free composition.
// * young_period / daly_period / young_overhead — the classical fail-stop-
//   only checkpointing formulas, Young (1974) and Daly (2006), that the
//   paper's Theorem 1 and core::daly_period_vc reduce to when silent errors,
//   verification and downtime vanish.

#pragma once

#include "ayd/core/pattern.hpp"
#include "ayd/model/system.hpp"

namespace ayd::core {

/// Proposition 1 verbatim:
///   E = M·[ e^{λf·R}·expm1(λf·(C+T+V) + λs·T) − e^{λf·C}·expm1(λs·T) ]
/// with M = 1/λf + D, and its λf → 0 limit. Numerically fine for moderate
/// exponents (λ·x ≲ 1).
[[nodiscard]] double expected_pattern_time_direct(const model::System& sys,
                                                  const Pattern& pattern);

/// Young's first-order optimum T = sqrt(2·μ·C).
/// `platform_mtbf` is the MTBF of the whole platform (μ_ind / P), seconds.
[[nodiscard]] double young_period(double platform_mtbf,
                                  double checkpoint_cost);

/// Daly's higher-order estimate (Future Gener. Comput. Syst. 22(3), 2006):
///   T = sqrt(2·μ·C)·[1 + (1/3)·sqrt(C/(2μ)) + (1/9)·(C/(2μ))] − C
/// for C < 2μ, and T = μ otherwise.
[[nodiscard]] double daly_period(double platform_mtbf,
                                 double checkpoint_cost);

/// Young's first-order overhead estimate at the optimal period:
///   H ≈ sqrt(2·C/μ)  (relative time lost to checkpoints + rollbacks).
[[nodiscard]] double young_overhead(double platform_mtbf,
                                    double checkpoint_cost);

}  // namespace ayd::core
