// Forwarding header: two-level checkpointing patterns are the
// TwoLevelSystem case of core/segmented.hpp. It keeps the older
// spellings for code that still names them.

#pragma once

#include "ayd/core/segmented.hpp"

namespace ayd::core {

using TwoLevelOptimum = SegmentedOptimum;

[[nodiscard]] inline SegmentedOptimum optimal_two_level_pattern(
    const TwoLevelSystem& sys, double procs) {
  return optimal_segmented_pattern(sys, procs);
}

}  // namespace ayd::core
