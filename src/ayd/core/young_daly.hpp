// Daly's higher-order checkpointing period (Daly 2006) transplanted to the
// VC protocol of the paper.
//
// The classical fail-stop-only formulas this generalises, Young's
// T_Y = sqrt(2·μ·C) and Daly's series, live with the test suite
// (tests/support/core_reference.hpp), which pins Theorem 1's reduction to
// Young's formula when silent errors, verification and downtime vanish.

#pragma once

#include "ayd/model/system.hpp"

namespace ayd::core {

/// Extension: Daly's higher-order correction transplanted to the VC
/// protocol. Theorem 1's T*_P = sqrt(K/Λ) with K = V_P + C_P and
/// Λ = λf_P/2 + λs_P is the Young-style first term; applying Daly's
/// series in the dimensionless exposure x = sqrt(K·Λ) gives
///   T = sqrt(K/Λ)·(1 + x/3 + x²/9) − K        for x < 1,
///   T = 1/Λ                                   otherwise,
/// which reduces exactly to Daly (2006) when silent errors are absent
/// (Λ = λf/2 = 1/(2μ), K = C). Empirically (see the probe test) it cuts
/// the period error vs the exact numerical optimum by ~3x and the
/// achieved-overhead gap by ~9x on every platform/scenario pair.
/// Returns +inf on error-free systems (never checkpoint).
[[nodiscard]] double daly_period_vc(const model::System& sys, double procs);

}  // namespace ayd::core
