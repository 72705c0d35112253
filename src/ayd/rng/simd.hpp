// Runtime-dispatched SIMD tier for the bulk variate transforms.
//
// The simulators draw failure inter-arrivals through a unit-variate
// factorization (model/failure_dist.hpp): a uniform word becomes a
// rate-independent deviate (-log(1-u), the unit-scale Weibull deviate,
// or the standard normal quantile) and a cheap per-distribution scaling.
// The transforms are where the time goes — one log/pow/rational per
// element — and they are embarrassingly data-parallel. This module holds
// the bulk transforms in two tiers:
//
//  * kScalar — loops that are *bit-identical* to the historical scalar
//    sampling paths (same libm calls, same expressions). This is the
//    reference tier: every hex-float pin and golden CSV in the test
//    suite is defined against it.
//  * kAvx2 — AVX2+FMA kernels (4 doubles per instruction) compiled with
//    function-level target attributes, so the rest of the binary keeps
//    its baseline ISA and the same build runs on machines without AVX2.
//    Values agree with the scalar tier to a few ULP (vectorized log/exp/
//    pow are correctly computed but not bit-identical to libm), which is
//    why the fast tier declares its own golden tier instead of touching
//    the scalar pins (docs/reproducing-the-paper.md, "Golden tiers").
//
// Dispatch: the active tier is chosen once per process from CPUID and
// the AYD_SIMD environment variable (off/0/scalar force the reference
// tier; anything else or unset means "best supported"). Tests can pin
// the tier programmatically with force_tier(), which overrides both.
//
// Every function transforms uniform01 inputs in place (or into an output
// span) and is pure elementwise — no RNG coupling, so callers keep full
// control of word order and reproducibility.

#pragma once

#include <cstddef>

namespace ayd::rng::simd {

enum class Tier : int {
  kScalar = 0,  ///< bit-compat reference (the golden tier)
  kAvx2 = 1,    ///< AVX2+FMA bulk kernels (its own golden tier)
};

/// Tier selected for this process: force_tier() override if set, else
/// AYD_SIMD environment override, else the best CPU-supported tier.
[[nodiscard]] Tier active_tier();

/// True when the binary was built with AVX2 kernel support *and* the
/// CPU reports AVX2+FMA (i.e. kAvx2 is selectable at all).
[[nodiscard]] bool avx2_available();

/// Test hook: pin the tier for subsequently constructed samplers,
/// overriding CPU detection and AYD_SIMD. Forcing kAvx2 on a machine
/// without AVX2 support is ignored (the scalar tier stays active).
void force_tier(Tier t);
/// Clears a force_tier() override (back to env + CPU detection).
void clear_forced_tier();

[[nodiscard]] const char* tier_name(Tier t);

// ---- bulk unit transforms ----------------------------------------------
//
// Scalar-tier semantics (exact expressions; the AVX2 tier matches these
// to a few ULP):
//   exponential_units: z[i] = -log(1 - z[i])
//   weibull_units:     z[i] = pow(-log1p(-z[i]), inv_k)
//   lognormal_units:   z[i] = normal_quantile(z[i] <= 0 ? 2^-53 : z[i])

void exponential_units(double* z, std::size_t n);
void weibull_units(double* z, std::size_t n, double inv_k);
void lognormal_units(double* z, std::size_t n);

}  // namespace ayd::rng::simd
