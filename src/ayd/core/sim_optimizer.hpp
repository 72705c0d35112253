// Simulation-driven robust optimisation of the expected overhead.
//
// The closed form behind optimizer.hpp (Proposition 1) holds only for
// exponential inter-arrivals; under Weibull / lognormal / trace-replay
// failures the analytic "optimum" drifts off the true one (the fig8/fig9
// robustness results). This module finds the true optimum for *any*
// configured FailureDistribution by minimising the *simulated* overhead:
//
//  * sim_optimal_period     — noise-aware 1-D search over log T at fixed
//    P: a coarse log-spaced scan seeded by the exponential-assumption
//    optimum, refined by golden-section. Every candidate is evaluated by
//    adaptive replication (sim::AdaptiveRun) under common random numbers
//    — all candidates share the replica substreams (seed, i) — and
//    candidates are compared with a *paired* Student-t test on the
//    per-replica differences. A cold coarse scan races: every candidate
//    runs its first round, and one whose paired 99.9% interval against
//    the round's leader lies above 0 is retired there (it keeps its
//    one-round summary and its place as a bracket edge, but is never the
//    argmin); the survivors finish on their unchanged schedule, so their
//    summaries are the bits of a full evaluation. The golden-section
//    loop stops exactly when its two interior candidates cannot be told
//    apart at the requested noise level (ci_limited) instead of chasing
//    noise.
//  * sim_optimal_allocation — nested search over P (a geometric candidate
//    ladder around the exponential Theorem-2/3 seed) with the period
//    search inside.
//
// Both fall back to the exact analytic optimisers — bit-for-bit — when
// the configured distribution *is* exponential (used_closed_form), so the
// simulation machinery costs nothing when the paper's model applies.
// Everything downstream of the seed is deterministic: same system, same
// options ⇒ the same candidate sequence, the same replica counts, the
// same optimum, on any machine and thread count.
//
// Threads go where a chunk is worth its dispatch (a replica of a few
// dozen patterns costs microseconds, about what waking a helper does). A
// batch of candidates — the coarse scan, the first golden-section pair —
// is stepped together, one adaptive round at a time
// (sim::AdaptiveRun::step_together): first round one for every
// candidate, then the cold scan's first-round screen, then rounds for
// the candidates still running. Each round is one fork-join call over
// its new replicas, every chunk running all live candidates on its
// replicas while their shared CRN variates are hot in cache. The search's
// own thread runs chunks alongside the pool's helpers, so a round of two
// chunks (sim::kMinPatternsPerTask patterns each) already splits; a
// round smaller than that runs on the caller. The remaining single
// evaluations (the closed-form CI attach, edge expansions, later golden
// steps) are the one-candidate case of the same loop. The P ladder's
// rungs run concurrently, each rung's search serially on the thread that
// runs it (a nested call runs inline).
//
// A search that diverges (util::SimulationDiverged) reports the smallest
// period that failed in the earliest round that had a failure, whatever
// the thread count.

#pragma once

#include <cstdint>

#include "ayd/core/optimizer.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/model/system.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/stats/summary.hpp"

namespace ayd::core {

/// The search's fixed shape. The period domain is optimizer.hpp's
/// [kMinPeriod, kMaxPeriod]. The coarse scan spans [T0/16, T0·16] around
/// the exponential seed T0, or [W/4, W·4] around a warm start W, in
/// kCoarsePoints log-spaced candidates (the middle one is the center).
/// Golden section stops once the bracket on log T is narrower than 5e-3,
/// or after 32 steps. The P ladder holds kLadderRungsPerSide rungs on each
/// side of the exponential seed P0, a factor 1.5 apart.
inline constexpr double kColdBracketSpan = 16.0;
inline constexpr double kWarmBracketSpan = 4.0;
inline constexpr int kCoarsePoints = 7;
inline constexpr int kLadderRungsPerSide = 3;

/// Knobs of the noise-aware period search.
struct SimSearchOptions {
  /// When > 0, warm-start the search: center the initial bracket on this
  /// period (typically the previously deployed optimum — the online
  /// re-planner's case, where successive optima are close) with the
  /// tighter kWarmBracketSpan instead of the exponential seed with
  /// kColdBracketSpan. `seed_period` still reports the exponential seed,
  /// and the coarse scan's edge expansion recovers when the warm start is
  /// stale, so a bad hint costs evaluations but never the optimum.
  /// Ignored on the closed-form (memoryless) path.
  double warm_start = 0.0;
  /// Run the search even for exponential distributions instead of
  /// returning the closed-form optimum (validation / testing hook).
  bool force_search = false;
  /// Monte-Carlo backend, seed and patterns per replica.
  /// `replication.replicas` is ignored — the adaptive driver owns the
  /// count. The same seed is reused for every candidate period (common
  /// random numbers), which is what makes paired comparisons sharp.
  sim::ReplicationOptions replication{};
  /// Adaptive stopping rule applied to every candidate evaluation.
  sim::AdaptiveOptions adaptive{};
};

/// Result of the simulation-driven period search.
struct SimPeriodOptimum {
  double period = 0.0;      ///< argmin of the simulated overhead
  /// Simulated overhead at `period`: mean, Student-t CI, replica count.
  stats::Summary overhead;
  /// The exponential-assumption optimum used to seed the search (the
  /// period the paper's planner would deploy).
  double seed_period = 0.0;
  /// True when the distribution is exponential and the closed-form
  /// optimiser answered exactly (no search ran).
  bool used_closed_form = false;
  /// True when the search terminated on a principled criterion — the
  /// bracket shrank to its tolerance, the noise floor was reached (ci_limited),
  /// or the closed form answered — rather than the iteration cap.
  bool converged = false;
  /// True when the search stopped because neighbouring candidates became
  /// statistically indistinguishable (paired CI over the common replicas
  /// contains 0). Tighten adaptive.ci_rel_tol to localise further.
  bool ci_limited = false;
  /// True when the reported optimum's CI met adaptive.ci_rel_tol; false
  /// when its evaluation hit adaptive.max_replicas first (the interval
  /// in `overhead` is then wider than requested).
  bool ci_converged = false;
  /// True when the optimum sits at the search-domain edge.
  bool at_boundary = false;
  int evaluations = 0;      ///< simulated candidate periods
  /// Coarse candidates the first-round screen retired (counted in
  /// `evaluations`).
  int retired = 0;
  /// Replicas simulated across all candidates (a retired candidate
  /// counts its first round only).
  std::uint64_t total_replicas = 0;
};

/// Minimises the simulated overhead over T at fixed `procs` under the
/// system's configured failure distribution. `pool` runs each round's
/// replicas, split across the candidates stepped together (results are
/// identical with or without it, at any thread count). Called from one
/// of the pool's own workers, the search runs serially on that worker.
[[nodiscard]] SimPeriodOptimum sim_optimal_period(
    const model::System& sys, double procs, const SimSearchOptions& opt = {},
    exec::ThreadPool* pool = nullptr);

/// Knobs of the nested (P, T) search.
struct SimAllocationSearchOptions {
  /// Upper edge of the P domain (the lower edge is 1).
  double max_procs = 1e7;
  /// Inner period search (shares the seed across all P candidates).
  SimSearchOptions period{};
};

/// Result of the simulation-driven joint search.
struct SimAllocationOptimum {
  double procs = 0.0;       ///< best allocation found (integer)
  double period = 0.0;      ///< simulated period optimum at that P
  stats::Summary overhead;  ///< simulated overhead there (Student-t CI)
  double seed_procs = 0.0;  ///< exponential-assumption P* that seeded P
  bool used_closed_form = false;  ///< exponential: exact optimiser answered
  bool converged = false;   ///< every inner search converged
  /// True when the reported optimum's CI met the adaptive target (see
  /// SimPeriodOptimum::ci_converged).
  bool ci_converged = false;
  /// True when the best P sits at the end of the candidate ladder (the
  /// true optimum may lie further out).
  bool at_boundary = false;
  /// True when the inner period search at the reported P stopped on the
  /// period-domain edge [kMinPeriod, kMaxPeriod].
  bool period_at_boundary = false;
  int outer_evaluations = 0;
  std::uint64_t total_replicas = 0;
};

/// Minimises the simulated overhead jointly over (T, P): an outer scan of
/// a geometric P ladder seeded by the exponential closed form, with
/// sim_optimal_period inside. `pool` runs the rungs concurrently, each
/// rung's period search serially on its worker (results are identical
/// with or without it).
[[nodiscard]] SimAllocationOptimum sim_optimal_allocation(
    const model::System& sys, const SimAllocationSearchOptions& opt = {},
    exec::ThreadPool* pool = nullptr);

}  // namespace ayd::core
