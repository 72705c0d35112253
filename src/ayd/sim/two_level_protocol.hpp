// Simulation of two-level checkpointing patterns (extension; see
// core/two_level.hpp): n work segments each ending in a verification and
// a level-1 (in-memory) checkpoint, a level-2 (stable-storage) checkpoint
// closing the pattern, run by the segmented-pattern interpreters
// (sim/segmented.hpp). A silent error re-executes only its segment after
// a level-1 recovery; a fail-stop error costs downtime + level-2 recovery
// and restarts the whole pattern. With n == 1 and L = R the process is
// the VC pattern's.

#pragma once

#include "ayd/core/two_level.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/sim/segmented.hpp"

namespace ayd::sim {

/// The fast interpreter, constructed (TwoLevelSystem, TwoLevelPattern).
using TwoLevelSimulator = SegmentedFastSimulator;

/// Replicated overhead estimate for a two-level pattern:
/// sim::simulate_overhead with the two-level plan; opt.backend selects
/// the interpreter and analytic_* carry the exponential closed form.
[[nodiscard]] ReplicationResult simulate_two_level_overhead(
    const core::TwoLevelSystem& sys, const core::TwoLevelPattern& pattern,
    const ReplicationOptions& opt = {}, exec::ThreadPool* pool = nullptr);

}  // namespace ayd::sim
