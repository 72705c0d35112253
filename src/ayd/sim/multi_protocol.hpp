// Simulation of multi-verification patterns (extension; see
// core/multi_verification.hpp): n work segments, each followed by a
// verification, one checkpoint at the end, run by the segmented-pattern
// interpreters (sim/segmented.hpp). A silent error is detected by the
// first verification after it strikes; n == 1 is the VC pattern.

#pragma once

#include "ayd/core/multi_verification.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/sim/segmented.hpp"

namespace ayd::sim {

/// The fast interpreter, constructed (System, MultiPattern).
using MultiVerifSimulator = SegmentedFastSimulator;

/// Replicated overhead estimate for a multi-pattern: sim::simulate_overhead
/// with the multi-verification plan; opt.backend selects the interpreter
/// and analytic_* carry the exponential closed form.
[[nodiscard]] ReplicationResult simulate_multi_overhead(
    const model::System& sys, const core::MultiPattern& pattern,
    const ReplicationOptions& opt = {}, exec::ThreadPool* pool = nullptr);

}  // namespace ayd::sim
