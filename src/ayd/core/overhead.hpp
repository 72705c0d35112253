// Expected overhead / makespan of a pattern (paper, Section II,
// "Optimization objective").
//
//   H(pattern) = E(pattern) / (T·S(P))     expected execution overhead
//   E(W_final) ≈ H(pattern)·W_total        expected makespan
//
// H(pattern) is the quantity every figure of the paper plots ("execution
// overhead"): the ratio of faulty wall-clock time to the time a failure-
// free serial execution of the same work would take, i.e. it tends to
// H(P) = α + (1-α)/P as errors vanish and to α as P also grows.

#pragma once

#include "ayd/core/pattern.hpp"
#include "ayd/model/application.hpp"
#include "ayd/model/system.hpp"

namespace ayd::core {

/// Expected execution overhead H(pattern) = E/(T·S(P)). +inf on overflow
/// (use log_pattern_overhead for optimisation).
[[nodiscard]] double pattern_overhead(const model::System& sys,
                                      const Pattern& pattern);

/// log H(pattern), finite for any valid input.
[[nodiscard]] double log_pattern_overhead(const model::System& sys,
                                          const Pattern& pattern);

/// Expected makespan H(pattern)·W_total of an application executed as a
/// sequence of these patterns.
[[nodiscard]] double expected_makespan(const model::System& sys,
                                       const Pattern& pattern,
                                       const model::Application& app);

}  // namespace ayd::core
