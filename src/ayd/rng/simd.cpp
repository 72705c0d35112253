#include "ayd/rng/simd.hpp"

#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "ayd/rng/distributions.hpp"

#if defined(AYD_HAVE_AVX2) && (defined(__x86_64__) || defined(__i386__))
#define AYD_SIMD_X86 1
#include <immintrin.h>
#endif

namespace ayd::rng::simd {

// ---- tier selection ----------------------------------------------------

namespace {

bool cpu_has_avx2() {
#ifdef AYD_SIMD_X86
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

Tier detect_tier() {
  const char* env = std::getenv("AYD_SIMD");
  if (env != nullptr) {
    std::string v(env);
    for (char& c : v) c = static_cast<char>(std::tolower(c));
    if (v == "off" || v == "0" || v == "scalar" || v == "none") {
      return Tier::kScalar;
    }
  }
  return cpu_has_avx2() ? Tier::kAvx2 : Tier::kScalar;
}

// -1 = no override; otherwise the forced Tier value.
std::atomic<int> g_forced{-1};

}  // namespace

Tier active_tier() {
  const int forced = g_forced.load(std::memory_order_relaxed);
  if (forced >= 0) return static_cast<Tier>(forced);
  static const Tier detected = detect_tier();
  return detected;
}

bool avx2_available() { return cpu_has_avx2(); }

void force_tier(Tier t) {
  if (t == Tier::kAvx2 && !cpu_has_avx2()) return;  // not selectable here
  g_forced.store(static_cast<int>(t), std::memory_order_relaxed);
}

void clear_forced_tier() {
  g_forced.store(-1, std::memory_order_relaxed);
}

const char* tier_name(Tier t) {
  switch (t) {
    case Tier::kScalar: return "scalar";
    case Tier::kAvx2: return "avx2";
  }
  return "unknown";
}

// ---- scalar reference tier ---------------------------------------------
//
// These loops ARE the historical sampling expressions (the sample_units
// bodies in model/failure_dist.cpp before this module existed); the
// bit-compat pins in tests/sim_bitcompat_test.cpp and
// tests/failure_dist_batch_test.cpp are defined against them.

namespace {

void exponential_units_scalar(double* z, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) z[i] = -std::log(1.0 - z[i]);
}

void weibull_units_scalar(double* z, std::size_t n, double inv_k) {
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = std::pow(-std::log1p(-z[i]), inv_k);
  }
}

void lognormal_units_scalar(double* z, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    z[i] = rng::detail::normal_quantile(z[i] <= 0.0 ? 0x1.0p-53 : z[i]);
  }
}

}  // namespace

// ---- AVX2 tier ---------------------------------------------------------

#ifdef AYD_SIMD_X86

namespace {

#define AYD_AVX2 __attribute__((target("avx2,fma")))

/// log(x) for normal positive finite x (4 lanes). The exponent field
/// reduces x to m ∈ [0.75, 1.5); log(m) = 2·atanh(s) with
/// s = (m-1)/(m+1), |s| <= 0.2, by the odd atanh series (degree 23 in s,
/// truncation < 1e-17 relative); e·ln2 is added back through a hi/lo
/// split. A couple of ULP — the AVX2 tier's accuracy contract, not
/// bit-compat with libm.
AYD_AVX2 inline __m256d vlog(__m256d x) {
  const __m256i xi = _mm256_castpd_si256(x);
  // Biased exponent per lane (fits in the low 32 bits after the shift);
  // compact the four low halves into one __m128i for the int->double
  // conversion.
  const __m256i exp_bits = _mm256_srli_epi64(
      _mm256_and_si256(xi, _mm256_set1_epi64x(0x7ff0000000000000LL)), 52);
  const __m128i exp32 = _mm256_castsi256_si128(_mm256_permutevar8x32_epi32(
      exp_bits, _mm256_setr_epi32(0, 2, 4, 6, 0, 0, 0, 0)));
  __m256d e = _mm256_sub_pd(_mm256_cvtepi32_pd(exp32),
                            _mm256_set1_pd(1023.0));
  __m256d m = _mm256_castsi256_pd(_mm256_or_si256(
      _mm256_and_si256(xi, _mm256_set1_epi64x(0x000fffffffffffffLL)),
      _mm256_set1_epi64x(0x3ff0000000000000LL)));
  // Fold m ∈ [1.5, 2) down to [0.75, 1), bumping the exponent.
  const __m256d fold = _mm256_cmp_pd(m, _mm256_set1_pd(1.5), _CMP_GE_OQ);
  m = _mm256_blendv_pd(m, _mm256_mul_pd(m, _mm256_set1_pd(0.5)), fold);
  e = _mm256_add_pd(e, _mm256_and_pd(fold, _mm256_set1_pd(1.0)));

  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d s =
      _mm256_div_pd(_mm256_sub_pd(m, one), _mm256_add_pd(m, one));
  const __m256d z2 = _mm256_mul_pd(s, s);
  // Q(z) = atanh(s)/s rewritten as 1 + z·Q(z), z = s² <= 0.04.
  __m256d q = _mm256_set1_pd(1.0 / 23.0);
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(1.0 / 21.0));
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(1.0 / 19.0));
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(1.0 / 17.0));
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(1.0 / 15.0));
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(1.0 / 13.0));
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(1.0 / 11.0));
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(1.0 / 9.0));
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(1.0 / 7.0));
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(1.0 / 5.0));
  q = _mm256_fmadd_pd(q, z2, _mm256_set1_pd(1.0 / 3.0));
  const __m256d s2 = _mm256_add_pd(s, s);
  // log(m) = 2s + 2s·z·Q(z)
  const __m256d log_m = _mm256_fmadd_pd(_mm256_mul_pd(s2, z2), q, s2);

  const __m256d ln2_hi = _mm256_set1_pd(0x1.62e42fee00000p-1);
  const __m256d ln2_lo = _mm256_set1_pd(0x1.a39ef35793c76p-33);
  return _mm256_fmadd_pd(e, ln2_hi, _mm256_fmadd_pd(e, ln2_lo, log_m));
}

/// exp(x) (4 lanes); underflows to 0 below ~-745, overflows to +inf
/// above ~709. Cody-Waite reduction against ln2, Taylor polynomial of
/// degree 13 on [-ln2/2, ln2/2], and a split power-of-two rescale
/// (2^n = 2^n1 · 2^n2) so deep-subnormal results come out right without
/// a 64-bit shift overflowing the exponent field.
AYD_AVX2 inline __m256d vexp(__m256d x) {
  x = _mm256_max_pd(_mm256_set1_pd(-746.0),
                    _mm256_min_pd(x, _mm256_set1_pd(710.0)));
  const __m256d log2e = _mm256_set1_pd(0x1.71547652b82fep+0);
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  const __m256d ln2_hi = _mm256_set1_pd(0x1.62e42fee00000p-1);
  const __m256d ln2_lo = _mm256_set1_pd(0x1.a39ef35793c76p-33);
  __m256d r = _mm256_fnmadd_pd(n, ln2_hi, x);
  r = _mm256_fnmadd_pd(n, ln2_lo, r);

  __m256d p = _mm256_set1_pd(1.0 / 6227020800.0);  // 1/13!
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 479001600.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 39916800.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 3628800.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 362880.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 40320.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 5040.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 720.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 120.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 24.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 6.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.5));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));

  // Split the integral n (|n| <= 1077) in floating point, then build the
  // two power-of-two factors through the exponent field.
  const __m256d n1 = _mm256_round_pd(_mm256_mul_pd(n, _mm256_set1_pd(0.5)),
                                     _MM_FROUND_TO_NEG_INF | _MM_FROUND_NO_EXC);
  const __m256d n2 = _mm256_sub_pd(n, n1);
  const __m256i n1i = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n1));
  const __m256i n2i = _mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n2));
  const __m256d s1 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(n1i, _mm256_set1_epi64x(1023)), 52));
  const __m256d s2 = _mm256_castsi256_pd(_mm256_slli_epi64(
      _mm256_add_epi64(n2i, _mm256_set1_epi64x(1023)), 52));
  return _mm256_mul_pd(_mm256_mul_pd(p, s1), s2);
}

/// -log1p(-u) for u ∈ [0, 1): w = 1 - u rounded, plus the standard
/// correction (x - (w-1))/w with x = -u, which restores the bits the
/// rounding of w lost. Exact zero at u == 0.
AYD_AVX2 inline __m256d vneg_log1p_neg(__m256d u) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d x = _mm256_sub_pd(_mm256_setzero_pd(), u);  // -u
  const __m256d w = _mm256_add_pd(one, x);                  // 1 - u, rounded
  const __m256d corr = _mm256_div_pd(
      _mm256_sub_pd(x, _mm256_sub_pd(w, one)), w);
  const __m256d l = _mm256_add_pd(vlog(w), corr);  // log1p(-u) <= 0
  return _mm256_sub_pd(_mm256_setzero_pd(), l);
}

AYD_AVX2 void exponential_units_avx2(double* z, std::size_t n) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d neg0 = _mm256_set1_pd(-0.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d u = _mm256_loadu_pd(z + i);
    // Same operand as the scalar path: log of the *rounded* 1 - u.
    const __m256d res = _mm256_xor_pd(vlog(_mm256_sub_pd(one, u)), neg0);
    _mm256_storeu_pd(z + i, res);
  }
  if (i < n) exponential_units_scalar(z + i, n - i);
}

AYD_AVX2 void weibull_units_avx2(double* z, std::size_t n, double inv_k) {
  const __m256d vik = _mm256_set1_pd(inv_k);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d u = _mm256_loadu_pd(z + i);
    const __m256d t = vneg_log1p_neg(u);
    // pow(t, 1/k) = exp(log(t)/k); t == 0 (u == 0) must yield 0 like
    // std::pow(0, positive), so mask those lanes out of the log.
    const __m256d pos = _mm256_cmp_pd(t, _mm256_setzero_pd(), _CMP_GT_OQ);
    const __m256d safe_t = _mm256_blendv_pd(_mm256_set1_pd(1.0), t, pos);
    const __m256d res = _mm256_and_pd(
        vexp(_mm256_mul_pd(vik, vlog(safe_t))), pos);
    _mm256_storeu_pd(z + i, res);
  }
  if (i < n) weibull_units_scalar(z + i, n - i, inv_k);
}

AYD_AVX2 void lognormal_units_avx2(double* z, std::size_t n) {
  // Acklam's central-region rational (p ∈ [0.02425, 0.97575], ~95% of
  // draws) vectorizes to pure FMA/divide arithmetic; tail lanes fall
  // back to the scalar routine (which also covers the sqrt(-2 log p)
  // branches).
  const __m256d p_low = _mm256_set1_pd(0.02425);
  const __m256d p_high = _mm256_set1_pd(1.0 - 0.02425);
  const __m256d tiny = _mm256_set1_pd(0x1.0p-53);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d u = _mm256_max_pd(_mm256_loadu_pd(z + i), tiny);
    const __m256d q = _mm256_sub_pd(u, _mm256_set1_pd(0.5));
    const __m256d r = _mm256_mul_pd(q, q);
    __m256d num = _mm256_set1_pd(-3.969683028665376e+01);
    num = _mm256_fmadd_pd(num, r, _mm256_set1_pd(2.209460984245205e+02));
    num = _mm256_fmadd_pd(num, r, _mm256_set1_pd(-2.759285104469687e+02));
    num = _mm256_fmadd_pd(num, r, _mm256_set1_pd(1.383577518672690e+02));
    num = _mm256_fmadd_pd(num, r, _mm256_set1_pd(-3.066479806614716e+01));
    num = _mm256_fmadd_pd(num, r, _mm256_set1_pd(2.506628277459239e+00));
    __m256d den = _mm256_set1_pd(-5.447609879822406e+01);
    den = _mm256_fmadd_pd(den, r, _mm256_set1_pd(1.615858368580409e+02));
    den = _mm256_fmadd_pd(den, r, _mm256_set1_pd(-1.556989798598866e+02));
    den = _mm256_fmadd_pd(den, r, _mm256_set1_pd(6.680131188771972e+01));
    den = _mm256_fmadd_pd(den, r, _mm256_set1_pd(-1.328068155288572e+01));
    den = _mm256_fmadd_pd(den, r, _mm256_set1_pd(1.0));
    const __m256d central = _mm256_div_pd(_mm256_mul_pd(num, q), den);
    _mm256_storeu_pd(z + i, central);

    const __m256d is_tail = _mm256_or_pd(
        _mm256_cmp_pd(u, p_low, _CMP_LT_OQ),
        _mm256_cmp_pd(u, p_high, _CMP_GT_OQ));
    int mask = _mm256_movemask_pd(is_tail);
    if (mask != 0) {
      alignas(32) double uu[4];
      _mm256_storeu_pd(uu, u);
      for (int lane = 0; lane < 4; ++lane) {
        if ((mask >> lane) & 1) {
          z[i + static_cast<std::size_t>(lane)] =
              rng::detail::normal_quantile(uu[lane]);
        }
      }
    }
  }
  if (i < n) lognormal_units_scalar(z + i, n - i);
}

#undef AYD_AVX2

}  // namespace

#endif  // AYD_SIMD_X86

// ---- dispatch ----------------------------------------------------------

void exponential_units(double* z, std::size_t n) {
#ifdef AYD_SIMD_X86
  if (active_tier() == Tier::kAvx2) {
    exponential_units_avx2(z, n);
    return;
  }
#endif
  exponential_units_scalar(z, n);
}

void weibull_units(double* z, std::size_t n, double inv_k) {
#ifdef AYD_SIMD_X86
  if (active_tier() == Tier::kAvx2) {
    weibull_units_avx2(z, n, inv_k);
    return;
  }
#endif
  weibull_units_scalar(z, n, inv_k);
}

void lognormal_units(double* z, std::size_t n) {
#ifdef AYD_SIMD_X86
  if (active_tier() == Tier::kAvx2) {
    lognormal_units_avx2(z, n);
    return;
  }
#endif
  lognormal_units_scalar(z, n);
}

}  // namespace ayd::rng::simd
