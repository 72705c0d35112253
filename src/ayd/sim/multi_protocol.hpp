// Forwarding header: multi-verification patterns run on the segmented
// interpreters (sim/segmented.hpp) through
// sim::simulate_segmented_overhead (sim/runner.hpp). It keeps the older
// spellings for code that still names them.

#pragma once

#include "ayd/sim/runner.hpp"
#include "ayd/sim/segmented.hpp"

namespace ayd::sim {

/// The fast interpreter, constructed (System, SegmentedPattern).
using MultiVerifSimulator = SegmentedFastSimulator;

[[nodiscard]] inline ReplicationResult simulate_multi_overhead(
    const model::System& sys, const core::SegmentedPattern& pattern,
    const ReplicationOptions& opt = {}, exec::ThreadPool* pool = nullptr) {
  return simulate_segmented_overhead(sys, pattern, opt, pool);
}

}  // namespace ayd::sim
