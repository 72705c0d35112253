// Numerically stable special functions.
//
// The resilience formulas in this library are built from exponentials of
// rate×time products that range from ~1e-12 (one processor, century MTBF)
// to ~1e3 (optimiser probing absurdly large P). Naive `exp` arithmetic
// either cancels catastrophically or overflows; every formula in ayd::core
// is therefore expressed through the primitives below.

#pragma once

namespace ayd::math {

/// expm1(x)/x, the "relative exponential" exprel(x).
/// Stable for all x, with exprel(0) == 1 exactly. Monotone increasing.
[[nodiscard]] double expm1_over_x(double x);

/// log(1 - exp(x)) for x < 0, stable near both x -> 0- and x -> -inf.
/// (Mächler's log1mexp.) Precondition: x < 0.
[[nodiscard]] double log1mexp(double x);

/// log(1 + exp(x)), stable for all x (softplus).
[[nodiscard]] double log1pexp(double x);

/// log(e^a + e^b) without overflow.
[[nodiscard]] double logaddexp(double a, double b);

/// log(e^a - e^b) for a > b, without overflow. Precondition: a > b.
[[nodiscard]] double logsubexp(double a, double b);

/// Probability that an Exp(rate) arrival strikes before `t`:
/// 1 - exp(-rate * t), computed as -expm1(-rate*t). Stable for tiny
/// rate*t. Preconditions: rate >= 0, t >= 0.
[[nodiscard]] double prob_before(double rate, double t);

/// Expected time lost when an Exp(rate) failure is known to strike within
/// an execution of length `w` (paper, proof of Prop. 1):
///   E_lost(w) = 1/rate - w / (e^{rate*w} - 1).
/// Stable limit w -> 0 or rate -> 0: E_lost -> w/2. Preconditions:
/// rate >= 0, w >= 0; returns w/2 when rate*w is tiny.
[[nodiscard]] double expected_time_lost(double rate, double w);

/// Expected time to complete a task of length `w` that restarts from
/// scratch after each Exp(rate) failure, each failure adding `downtime`:
///   M·expm1(rate·w) with M = 1/rate + downtime (paper, proof of Prop. 1),
/// computed as w·exprel(rate·w) + downtime·expm1(rate·w), which is stable
/// down to rate == 0 (-> w).
[[nodiscard]] double expected_completion_time(double rate, double downtime,
                                              double w);

/// True if |a - b| <= atol + rtol * max(|a|, |b|). NaNs are never close.
[[nodiscard]] bool is_close(double a, double b, double rtol = 1e-9,
                            double atol = 0.0);

/// Relative difference |a - b| / max(|a|, |b|, floor). Returns 0 for a==b.
[[nodiscard]] double rel_diff(double a, double b, double floor = 1e-300);

}  // namespace ayd::math
