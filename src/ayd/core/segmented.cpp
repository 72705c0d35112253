#include "ayd/core/segmented.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ayd/math/minimize.hpp"
#include "ayd/math/special.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

double checked_procs(double procs) {
  AYD_REQUIRE(std::isfinite(procs) && procs >= 1.0,
              "processor count must be finite and >= 1");
  return procs;
}

/// One protocol at one allocation. The two protocol facts are `inner`
/// (what an inner boundary stores) and `to_start` (where a detected
/// silent error rolls back to); everything else is the base System's.
struct Levels {
  const model::System& base;
  double p, lf, ls, v, c, r, d;
  double inner;   ///< L_P for two-level, 0 for multi-verification
  bool to_start;  ///< silent rollback: R chain to the pattern start

  Levels(const SegmentedProtocol& sys, double procs)
      : base(sys.base()),
        p(checked_procs(procs)),
        lf(base.fail_stop_rate(procs)),
        ls(base.silent_rate(procs)),
        v(base.verification_cost(procs)),
        c(base.checkpoint_cost(procs)),
        r(base.recovery_cost(procs)),
        d(base.downtime()),
        inner(sys.level1() != nullptr ? sys.level1()->cost(procs) : 0.0),
        to_start(sys.level1() == nullptr) {}

  /// Mean segments a silent error re-executes, k = k0 + k1·n.
  [[nodiscard]] double k0() const { return to_start ? 0.5 : 1.0; }
  [[nodiscard]] double k1() const { return to_start ? 0.5 : 0.0; }
};

/// A phase of length `len` exposed to fail-stop errors: it is struck with
/// probability q, losing `lost` on average, and completes with p.
struct Phase {
  double len, q, p, lost;
  Phase(double lf, double length)
      : len(length),
        q(-std::expm1(-lf * length)),
        p(std::exp(-lf * length)),
        lost(math::expected_time_lost(lf, length)) {}
};

double expected_time(const Levels& x, const SegmentedPattern& pattern) {
  validate(pattern);
  const int n = pattern.segments;
  const double w = pattern.period / n;
  const Phase span(x.lf, w + x.v);  // work + verification of one segment
  const double q_s = -std::expm1(-x.ls * w);  // silent strike in the work
  // Expected stable recovery, with its own fail-stop retries and their
  // downtimes; the triggering downtime is added by each branch below.
  const double er = math::expected_completion_time(x.lf, x.d, x.r);
  const Phase store(x.lf, x.inner);  // an inner boundary's store

  // Where a detected silent error goes: back to the pattern start (cost
  // `restart_cost`, weight `restart` on F) or back to this segment's
  // start (cost `retry_cost`, weight `retry` on e_i).
  double restart_cost = er, retry_cost = 0.0, restart = 1.0, retry = 0.0;
  if (!x.to_start) {  // one level-1 try; a fail-stop during it restarts
    restart_cost = store.q * (store.lost + x.d + er);
    retry_cost = store.p * store.len;
    restart = store.q;
    retry = store.p;
  }

  // The expectation from the start of segment i to pattern completion is
  // e_i = a_i + g_i·F with F = e_1 (fail-stop restarts close the loop):
  //   e_i = q_A·(E_lost(A) + D + E(R) + F)
  //       + p_A·q_s·[A + restart_cost + restart·F + retry_cost + retry·e_i]
  //       + p_A·(1−q_s)·[q_X·(A + E_lost(X) + D + E(R) + F)
  //                      + p_X·(A + X + e_{i+1})],
  // where X is what the boundary stores: C on the last segment, the inner
  // store (L or nothing) before it.
  struct Step {
    double self, next, f, konst;
  };
  const auto step = [&](const Phase& boundary) {
    return Step{span.p * q_s * retry, span.p * (1.0 - q_s) * boundary.p,
                span.q + span.p * q_s * restart +
                    span.p * (1.0 - q_s) * boundary.q,
                span.q * (span.lost + x.d + er) +
                    span.p * q_s * (span.len + restart_cost + retry_cost) +
                    span.p * (1.0 - q_s) *
                        (boundary.q * (span.len + boundary.lost + x.d + er) +
                         boundary.p * (span.len + boundary.len))};
  };
  const Step last = step(Phase(x.lf, x.c));
  const Step inner = step(store);

  double a = 0.0;  // a_{i+1}
  double g = 0.0;  // g_{i+1}
  for (int i = n; i >= 1; --i) {
    const Step& s = i == n ? last : inner;
    const double denom = 1.0 - s.self;
    if (!(denom > 0.0)) return kInf;
    const double a_i = (s.konst + s.next * a) / denom;
    const double g_i = (s.f + s.next * g) / denom;
    a = a_i;
    g = g_i;
  }

  // F = a_1 + g_1·F  =>  F = a_1 / (1 − g_1).
  const double denom = 1.0 - g;
  if (!(denom > 0.0) || !std::isfinite(a)) return kInf;
  return a / denom;
}

double overhead(const Levels& x, const SegmentedPattern& pattern) {
  return expected_time(x, pattern) /
         (pattern.period * x.base.speedup(pattern.procs));
}

/// Fault-free resilience cost nV + (n−1)L + C of one pattern.
double fo_cost(const Levels& x, double n) {
  return n * x.v + (n - 1.0) * x.inner + x.c;
}

/// Loss rate λf/2 + λs·k/n per unit of pattern length.
double fo_rate(const Levels& x, double n) {
  return x.lf / 2.0 + x.ls * (x.k0() + x.k1() * n) / n;
}

double first_order_overhead(const Levels& x, const SegmentedPattern& pattern) {
  validate(pattern);
  const double t = pattern.period;
  const double n = pattern.segments;
  return x.base.error_free_overhead(x.p) *
         (fo_cost(x, n) / t + fo_rate(x, n) * t + 1.0);
}

double optimal_period(const Levels& x, int segments) {
  AYD_REQUIRE(segments >= 1, "need at least one segment");
  const double n = segments;
  const double rate = fo_rate(x, n);
  if (rate == 0.0) return kInf;
  const double cost = fo_cost(x, n);
  AYD_REQUIRE(cost > 0.0, "resilience cost must be positive");
  return std::sqrt(cost / rate);
}

}  // namespace

void validate(const SegmentedPattern& pattern) {
  AYD_REQUIRE(std::isfinite(pattern.period) && pattern.period > 0.0,
              "segmented pattern period must be finite and positive");
  AYD_REQUIRE(std::isfinite(pattern.procs) && pattern.procs >= 1.0,
              "segmented pattern processor count must be finite and >= 1");
  AYD_REQUIRE(pattern.segments >= 1,
              "segmented pattern needs at least one segment");
}

double expected_segmented_time(const SegmentedProtocol& sys,
                               const SegmentedPattern& pattern) {
  return expected_time(Levels(sys, pattern.procs), pattern);
}

double segmented_overhead(const SegmentedProtocol& sys,
                          const SegmentedPattern& pattern) {
  return overhead(Levels(sys, pattern.procs), pattern);
}

double first_order_segmented_overhead(const SegmentedProtocol& sys,
                                      const SegmentedPattern& pattern) {
  return first_order_overhead(Levels(sys, pattern.procs), pattern);
}

double optimal_segmented_period(const SegmentedProtocol& sys, double procs,
                                int segments) {
  return optimal_period(Levels(sys, procs), segments);
}

SegmentedPlan optimal_segmented_plan(const SegmentedProtocol& sys,
                                     double procs) {
  const Levels x(sys, procs);
  // (n·a + b)(c + d/n): the n-th boundary stores C instead of the inner
  // store, so the fixed part b is C − L (clamped at 0 for the degenerate
  // L >= C configuration, where n* = 1).
  const double a = x.v + x.inner;
  const double b = std::max(0.0, x.c - x.inner);
  const double c = x.lf / 2.0 + x.ls * x.k1();
  const double d = x.ls * x.k0();
  AYD_REQUIRE(a > 0.0,
              "the closed-form segmented plan requires a positive boundary "
              "cost V_P + L_P (free boundaries admit unbounded n)");
  AYD_REQUIRE(c > 0.0,
              "the closed-form segmented plan requires an n-independent "
              "loss rate (lambda_f + lambda_s > 0 for multi-verification, "
              "lambda_f > 0 for two-level); otherwise n* is unbounded");

  SegmentedPlan out;
  out.segments_continuous = std::sqrt(b * d / (a * c));
  const auto fo_overhead = [&](int n) {
    return first_order_overhead(x, {optimal_period(x, n), x.p, n});
  };
  const int lo =
      std::max(1, static_cast<int>(std::floor(out.segments_continuous)));
  const int hi = lo + 1;
  out.segments = fo_overhead(lo) <= fo_overhead(hi) ? lo : hi;
  out.period = optimal_period(x, out.segments);
  out.overhead = first_order_overhead(x, {out.period, x.p, out.segments});
  return out;
}

SegmentedOptimum optimal_segmented_pattern(const SegmentedProtocol& sys,
                                           double procs) {
  const Levels x(sys, procs);
  SegmentedOptimum best;
  int rising_streak = 0;
  for (int n = 1; n <= kMaxSegments; ++n) {
    // Inner exact-overhead period search on log T, seeded by the
    // first-order period for this n.
    double hint = optimal_period(x, n);
    if (!std::isfinite(hint)) hint = 1e6;
    const auto objective = [&](double log_t) {
      const double h = overhead(x, {std::exp(log_t), x.p, n});
      return std::isfinite(h) ? std::log(h) : 1e300;
    };
    const math::MinimizeResult res = math::minimize_with_hint(
        objective, std::log(1e-3), std::log(1e13),
        std::log(std::clamp(hint, 1e-3, 1e13)));
    const double h = std::exp(res.fx);
    // n = 1 is always taken, so a system where no n has a finite overhead
    // still reports a valid pattern (unconverged) instead of period 0.
    if (n == 1 || h < best.overhead) {
      best.segments = n;
      best.period = std::exp(res.x);
      best.overhead = h;
      best.converged = res.converged && std::isfinite(h);
      rising_streak = 0;
    } else if (++rising_streak >= 4) {
      break;  // unimodal in n in practice; stop after a consistent rise
    }
  }
  return best;
}

}  // namespace ayd::core
