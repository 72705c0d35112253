// The standard per-point evaluation: first-order closed forms, numerical
// optima, baselines, and replicated simulation, selected by flags.
//
// Grid axes are applied to a base System by name — "lambda" replaces the
// individual error rate, "alpha" the Amdahl sequential fraction,
// "downtime" the downtime, and "procs" fixes the processor allocation
// (switching the evaluator from the joint (T, P) optimum to the fixed-P
// period optimum, exactly like the paper's Figure 3). The failure
// distribution is an axis too: "weibull_k" / "lognormal_sigma" replace
// the inter-arrival shape, so grids can sweep shape parameters the same
// way they sweep rates. The closed-form/numerical-optimum stages always
// assume exponential arrivals (the paper's planner); the simulation
// stages draw from the configured distribution, which is exactly what
// makes the robustness experiments (bench/fig8_weibull_sweep) work.
//
// Evaluations are pure per point: simulation replica i always draws from
// RNG substream (seed, i), so results are bit-identical whether points run
// serially or fan out over the engine's thread pool.

#pragma once

#include <optional>

#include "ayd/core/first_order.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/sim_optimizer.hpp"
#include "ayd/engine/grid.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/model/system.hpp"
#include "ayd/sim/runner.hpp"

namespace ayd::engine {

/// Applies a point's named axes to `base`: "lambda" -> with_lambda,
/// "alpha" -> with_speedup(Amdahl), "downtime" -> with_downtime,
/// "weibull_k" / "lognormal_sigma" -> with_failure_dist, then the
/// shock axes (model/correlated.hpp): "shock_rho", "shock_group" and
/// "pfs_penalty" -> with_shock, each setting its field of the base
/// system's shock spec (or ShockSpec's default), so a point whose rho is
/// 0 has neither shock nor PFS penalty. The "procs" axis is
/// allocation-level, not system-level, and is ignored here (read it with
/// point.var("procs")).
[[nodiscard]] model::System apply_axes(const model::System& base,
                                       const Point& pt);

/// Builds the paper's standard System for a grid point: the point's
/// platform/scenario (fall back to `platform` / `scenario` when the grid
/// lacks that dimension) at `alpha`, `downtime` and `failure_dist`, then
/// the point's axes (apply_axes).
struct SystemSpec {
  model::Platform platform;
  model::Scenario scenario = model::Scenario::kS1;
  double alpha = 0.1;
  double downtime = 3600.0;
  /// Failure inter-arrival shape (exponential unless a "weibull_k" /
  /// "lognormal_sigma" axis overrides it at the point).
  model::FailureDistSpec failure_dist{};
};
[[nodiscard]] model::System system_for_point(const SystemSpec& spec,
                                             const Point& pt);

/// What evaluate_point computes.
struct EvalSpec {
  bool first_order = false;          ///< Theorems 2/3 closed form
  bool numerical = false;            ///< exact optimum (joint or fixed-P)
  bool simulate_numerical = false;   ///< replicated sim at the exact optimum
  bool simulate_first_order = false; ///< replicated sim at the FO pattern
  bool baseline_silent_blind = false;///< fail-stop-only planner period
  /// Simulation-driven robust optimum under the point's configured
  /// failure distribution (core::sim_optimal_period at fixed P, else
  /// core::sim_optimal_allocation) — the mode the fig9 bench and
  /// `ayd optimize --simulate` run in. Its knobs live in `sim_search`
  /// (the fixed-P mode reads `sim_search.period`); the "ci_rel_tol" and
  /// "max_reps" grid axes override them per point via apply_eval_axes.
  bool sim_optimize = false;
  core::AllocationSearchOptions search{};
  sim::ReplicationOptions replication{};
  core::SimAllocationSearchOptions sim_search{};
  /// Sweep-aware common random numbers: when non-null, every simulation
  /// at a point resolves its (failure-dist shape, seed) scenario against
  /// this registry and draws unit variates from the shared pool — one
  /// sampling pass for all grid points that share a scenario, and CRN
  /// comparisons between them (sim/variate_pool.hpp). Not owned; must
  /// outlive the grid run. Thread-safe, so one cache serves a
  /// point-parallel sweep. Points whose distribution cannot pool (trace
  /// replay) silently fall back to independent sampling.
  sim::VariateCache* crn = nullptr;
};

/// Everything the standard evaluator produced at one point. Optional
/// members are set according to the EvalSpec flags (and first_order's
/// has_optimum gate for the FO simulation).
struct PointEval {
  std::optional<core::FirstOrderSolution> first_order;
  /// Joint (T, P) optimum when no "procs" axis fixes the allocation.
  std::optional<core::AllocationOptimum> allocation;
  /// Fixed-P results when the allocation is fixed.
  std::optional<double> fixed_procs;
  std::optional<double> fo_period;  ///< Theorem 1 period at fixed_procs
  std::optional<core::PeriodOptimum> period;
  std::optional<double> silent_blind_period;
  std::optional<sim::ReplicationResult> sim_numerical;
  std::optional<sim::ReplicationResult> sim_first_order;
  /// Simulation-driven optimum (EvalSpec::sim_optimize): the fixed-P
  /// period search, or the joint (T, P) search when no "procs" axis
  /// fixes the allocation.
  std::optional<core::SimPeriodOptimum> sim_period;
  std::optional<core::SimAllocationOptimum> sim_allocation;

  /// The FO pattern that was (or would be) simulated: Theorem 1 period at
  /// fixed procs, else the Theorem 2/3 pattern with P rounded to >= 1.
  [[nodiscard]] core::Pattern first_order_pattern() const;
  /// The numerically optimal pattern.
  [[nodiscard]] core::Pattern numerical_pattern() const;
};

/// Runs the selected computations for `sys`. `fixed_procs` switches the
/// numerical stage from optimal_allocation to optimal_period. `sim_pool`
/// parallelises *within* one point: a simulate point's replicas, or a
/// sim-optimize point's candidate periods, P rungs or large replica
/// rounds. Leave it null inside grid runs (the engine already fans points
/// out) and pass a pool for single-point evaluations like `ayd simulate`.
[[nodiscard]] PointEval evaluate_point(
    const model::System& sys, const EvalSpec& spec,
    std::optional<double> fixed_procs = std::nullopt,
    exec::ThreadPool* sim_pool = nullptr);

/// Applies a point's evaluation-level axes to a spec copy: "ci_rel_tol"
/// sets the adaptive CI target and "max_reps" the replication cap of the
/// sim-optimize mode. System-level axes are apply_axes' business; axes
/// absent from the point leave the base spec untouched.
[[nodiscard]] EvalSpec apply_eval_axes(const EvalSpec& base, const Point& pt);

}  // namespace ayd::engine
