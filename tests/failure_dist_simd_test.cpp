// Equivalence of the SIMD-tier bulk sampling with the pinned scalar
// reference (the two-golden-tier policy, docs/reproducing-the-paper.md):
//
//  * Under the forced scalar tier, sample_units_fast is bit-identical to
//    the pinned scalar sample_units — the tier dispatch must be
//    invisible when it selects the reference.
//  * Under the AVX2 tier, the vectorized transcendental kernels may
//    differ from libm, but only within tight relative-error bounds that
//    are orders of magnitude below both the distributions' statistical
//    resolution and the fast simulator's 1e-4 threshold margin. The
//    bounds are per-distribution: near the edge of Acklam's central
//    region the normal quantile's rational approximation is
//    ill-conditioned (condition number ~700), so the lognormal bound is
//    looser than the exponential's few-ULP one — for *both* tiers' own
//    reasons, not because the vector kernel is sloppy.

#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "ayd/model/failure_dist.hpp"
#include "ayd/rng/simd.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/util/error.hpp"

namespace ayd::model {
namespace {

struct SpecCase {
  FailureDistSpec spec;
  /// Relative-error bound for the AVX2 unit transform vs the scalar one.
  double unit_rel_tol;
};

std::vector<SpecCase> cases() {
  return {
      // -log1p is matched to a few ULP by the vector log.
      {FailureDistSpec::exponential(), 1e-14},
      // pow(t, 1/k) amplifies the log's ULPs by |log t / k|; bounds sized
      // from the measured worst case (~25 ULP at k = 0.7) with headroom.
      {FailureDistSpec::weibull(0.7), 1e-12},
      {FailureDistSpec::weibull(1.5), 1e-12},
      // Acklam's rational is ill-conditioned near its region boundary;
      // the scalar and vector evaluations legitimately disagree by up to
      // ~3e-13 relative there (both are within the approximation's own
      // 1.15e-9 error of the true quantile).
      {FailureDistSpec::lognormal(0.5), 1e-11},
      {FailureDistSpec::lognormal(2.0), 1e-11},
  };
}

/// a == b bitwise (covers ±0 and equal infinities), or within rel_tol.
::testing::AssertionResult close_rel(double a, double b, double rel_tol) {
  if (a == b) return ::testing::AssertionSuccess();
  const double scale = std::max(std::abs(a), std::abs(b));
  const double err = std::abs(a - b) / scale;
  if (err <= rel_tol) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " vs " << b << " (relative error " << err << " > " << rel_tol
         << ")";
}

constexpr std::size_t kN = 4099;  // odd: exercises the remainder lanes
constexpr double kRate = 3.2e-6;

TEST(FailureDistSimd, ScalarTierBulkUnitsAreBitIdenticalToPinnedMethod) {
  rng::simd::force_tier(rng::simd::Tier::kScalar);
  for (const SpecCase& c : cases()) {
    const auto dist = c.spec.instantiate(kRate);
    std::vector<double> za(kN), zb(kN);
    rng::RngStream ra(2024), rb(2024);
    dist->sample_units(ra, za.data(), kN);
    dist->sample_units_fast(rb, zb.data(), kN);
    // Same engine words consumed, same values produced — bitwise.
    EXPECT_EQ(ra.engine().state(), rb.engine().state()) << c.spec.to_string();
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(za[i], zb[i]) << c.spec.to_string() << " unit " << i;
    }
  }
  rng::simd::clear_forced_tier();
}

TEST(FailureDistSimd, Avx2TierMatchesScalarWithinPerDistributionBounds) {
  if (!rng::simd::avx2_available()) {
    GTEST_SKIP() << "AVX2 not available on this host";
  }
  for (const SpecCase& c : cases()) {
    const auto dist = c.spec.instantiate(kRate);

    rng::simd::force_tier(rng::simd::Tier::kScalar);
    std::vector<double> scalar_z(kN);
    rng::RngStream rs(77);
    dist->sample_units_fast(rs, scalar_z.data(), kN);

    rng::simd::force_tier(rng::simd::Tier::kAvx2);
    std::vector<double> simd_z(kN);
    rng::RngStream rv(77);
    dist->sample_units_fast(rv, simd_z.data(), kN);

    // Identical word consumption; values within the per-dist bound.
    EXPECT_EQ(rs.engine().state(), rv.engine().state()) << c.spec.to_string();
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(close_rel(scalar_z[i], simd_z[i], c.unit_rel_tol))
          << c.spec.to_string() << " unit " << i;
    }
  }
  rng::simd::clear_forced_tier();
}

TEST(FailureDistSimd, TierControlsBehaveAsDocumented) {
  // Forcing the scalar tier always works; forcing AVX2 on a host without
  // it is ignored (active_tier stays scalar there).
  rng::simd::force_tier(rng::simd::Tier::kScalar);
  EXPECT_EQ(rng::simd::active_tier(), rng::simd::Tier::kScalar);
  rng::simd::force_tier(rng::simd::Tier::kAvx2);
  if (rng::simd::avx2_available()) {
    EXPECT_EQ(rng::simd::active_tier(), rng::simd::Tier::kAvx2);
  } else {
    EXPECT_EQ(rng::simd::active_tier(), rng::simd::Tier::kScalar);
  }
  rng::simd::clear_forced_tier();
  EXPECT_STREQ(rng::simd::tier_name(rng::simd::Tier::kScalar), "scalar");
}

TEST(FailureDistSimd, DegenerateAndTraceKindsKeepScalarSemantics) {
  // Rate 0 ("never fails") and trace replay do not factor through unit
  // variates; the tier-aware entry points must preserve the base-class
  // behaviour (forward / throw), not silently vectorize.
  const auto never = FailureDistSpec::weibull(0.7).instantiate(0.0);
  EXPECT_FALSE(never->unit_samplable());
  double z[4] = {0.1, 0.2, 0.3, 0.4};
  rng::RngStream rng(1);
  EXPECT_THROW(never->sample_units_fast(rng, z, 4), util::Error);
}

}  // namespace
}  // namespace ayd::model
