// Exact expected execution time of a pattern (Proposition 1 of the paper).
//
// Notation (all rates/costs evaluated at the pattern's P):
//   λf = fail-stop rate, λs = silent rate, C = checkpoint cost,
//   R = recovery cost, V = verification cost, D = downtime,
//   M = 1/λf + D.
//
// Proposition 1:
//   E(pattern) = M · [ e^{λf·C}(1 − e^{λs·T}) + e^{λf·R}(e^{λf·(C+T+V)+λs·T} − 1) ]
//
// This file exposes two equivalent implementations:
//
//  * expected_pattern_time()     — cancellation-free composition of the
//    component expectations through expm1/exprel primitives. Exact in the
//    λf → 0 and λs → 0 limits; the default everywhere. The test suite pins
//    it against the Prop.-1 closed form evaluated verbatim
//    (tests/support/core_reference.hpp).
//  * log_expected_pattern_time() — log E, finite even when the
//    exponents overflow double range (the joint optimiser probes P up to
//    10^13 where λf·C_P alone exceeds exp overflow).
//
// The composition sums the component expectations of the proof of
// Prop. 1:
//   E(R)   = M(e^{λf·R} − 1)
//   E(T+V) = e^{λs·T}(e^{λf(T+V)} − 1)·M + (e^{λf(T+V)+λs·T} − 1)·E(R)
//   E(C)   = (e^{λf·C} − 1)(M·e^{λf·R} + E(T+V))
//   E(pattern) = E(T+V) + E(C)

#pragma once

#include "ayd/core/pattern.hpp"
#include "ayd/model/system.hpp"

namespace ayd::core {

/// Exact expected execution time of the pattern (stable composition form).
/// Returns +inf if the value exceeds double range; use the log form then.
[[nodiscard]] double expected_pattern_time(const model::System& sys,
                                           const Pattern& pattern);

/// log E(pattern); finite for any valid input, however extreme.
[[nodiscard]] double log_expected_pattern_time(const model::System& sys,
                                               const Pattern& pattern);

}  // namespace ayd::core
