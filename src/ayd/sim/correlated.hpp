// Simulation of the correlated / multi-level failure worlds
// (model/correlated.hpp): an extended System runs the segmented-pattern
// interpreters (sim/segmented.hpp), which the replication driver
// (sim/runner.hpp) selects for it.

#pragma once

#include "ayd/sim/segmented.hpp"

namespace ayd::sim {

/// The fast interpreter on a VC pattern, constructed (System, Pattern).
using CorrelatedFastSimulator = SegmentedFastSimulator;

}  // namespace ayd::sim
