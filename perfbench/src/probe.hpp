// The traced run's layer probe (rng and sim families), see probe.cpp.

#pragma once

#include "bench.hpp"

namespace pb {

/// Adds the rng.* and sim.* per-layer metrics to `report`.
void probe_layers(Report& report);

}  // namespace pb
