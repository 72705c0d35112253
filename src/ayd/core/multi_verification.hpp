// Forwarding header: multi-verification patterns are the model::System
// case of core/segmented.hpp. It keeps the older spellings for code that
// still names them.

#pragma once

#include "ayd/core/segmented.hpp"

namespace ayd::core {

using MultiOptimum = SegmentedOptimum;

[[nodiscard]] inline SegmentedOptimum optimal_multi_pattern(
    const model::System& sys, double procs) {
  return optimal_segmented_pattern(sys, procs);
}

}  // namespace ayd::core
