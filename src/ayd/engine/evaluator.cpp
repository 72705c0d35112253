#include "ayd/engine/evaluator.hpp"

#include <algorithm>
#include <cmath>

#include "ayd/core/baselines.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::engine {

model::System apply_axes(const model::System& base, const Point& pt) {
  model::System sys = base;
  for (const auto& [name, value] : pt.vars) {
    if (name == "lambda") {
      sys = sys.with_lambda(value);
    } else if (name == "alpha") {
      sys = sys.with_speedup(model::Speedup::amdahl(value));
    } else if (name == "downtime") {
      sys = sys.with_downtime(value);
    } else if (name == "weibull_k") {
      sys = sys.with_failure_dist(model::FailureDistSpec::weibull(value));
    } else if (name == "lognormal_sigma") {
      sys = sys.with_failure_dist(model::FailureDistSpec::lognormal(value));
    }
    // Other axes ("procs", bench-specific knobs) are not system fields.
  }
  // The shock axes come last, so the PFS penalty prices the point's final
  // cost model. shock_rho, shock_group and pfs_penalty are one axis
  // group: each sets its field of the base system's shock spec (or
  // ShockSpec's default), so a group fraction or a penalty rides along
  // with whatever rho the point carries, and a point without a shock
  // drops them with the shock.
  if (pt.has_var("shock_rho") || pt.has_var("shock_group") ||
      pt.has_var("pfs_penalty")) {
    model::ShockSpec shock;
    const auto* ext = sys.extension();
    if (ext != nullptr && ext->shock.has_value()) shock = *ext->shock;
    if (pt.has_var("shock_rho")) shock.correlation = pt.var("shock_rho");
    if (pt.has_var("shock_group")) {
      shock.group_fraction = pt.var("shock_group");
    }
    if (pt.has_var("pfs_penalty")) shock.pfs_penalty = pt.var("pfs_penalty");
    sys = sys.with_shock(shock);
  }
  return sys;
}

model::System system_for_point(const SystemSpec& spec, const Point& pt) {
  const model::Platform& platform =
      pt.platform.has_value() ? *pt.platform : spec.platform;
  const model::Scenario scenario =
      pt.scenario.has_value() ? *pt.scenario : spec.scenario;
  return apply_axes(model::System::from_platform(platform, scenario,
                                                 spec.alpha, spec.downtime)
                        .with_failure_dist(spec.failure_dist),
                    pt);
}

core::Pattern PointEval::first_order_pattern() const {
  if (fixed_procs.has_value()) {
    AYD_REQUIRE(fo_period.has_value(),
                "first_order_pattern: no Theorem-1 period computed");
    return {*fo_period, *fixed_procs};
  }
  AYD_REQUIRE(first_order.has_value() && first_order->has_optimum,
              "first_order_pattern: no first-order optimum at this point");
  return {first_order->period, std::max(1.0, std::round(first_order->procs))};
}

core::Pattern PointEval::numerical_pattern() const {
  if (fixed_procs.has_value()) {
    AYD_REQUIRE(period.has_value(),
                "numerical_pattern: no period optimum computed");
    return {period->period, *fixed_procs};
  }
  AYD_REQUIRE(allocation.has_value(),
              "numerical_pattern: no allocation optimum computed");
  return {allocation->period, allocation->procs};
}

PointEval evaluate_point(const model::System& sys, const EvalSpec& spec,
                         std::optional<double> fixed_procs,
                         exec::ThreadPool* sim_pool) {
  PointEval out;
  out.fixed_procs = fixed_procs;

  if (spec.first_order) {
    if (fixed_procs.has_value()) {
      out.fo_period = core::optimal_period_first_order(sys, *fixed_procs);
    } else {
      out.first_order = core::solve_first_order(sys);
    }
  }

  if (spec.numerical) {
    if (fixed_procs.has_value()) {
      out.period = core::optimal_period(sys, *fixed_procs);
    } else {
      out.allocation = core::optimal_allocation(sys, spec.search);
    }
  }

  if (spec.baseline_silent_blind && fixed_procs.has_value()) {
    out.silent_blind_period = core::silent_blind_period(sys, *fixed_procs);
  }

  // One scratch arena per worker thread: grid runs fan points out over a
  // pool and each point's evaluation lands here, so the per-point
  // simulate_overhead calls reuse the calling worker's arena instead of
  // reallocating — point-parallel sweeps allocate nothing steady-state.
  static thread_local sim::ReplicationScratch sim_scratch;

  // Sweep-aware common random numbers: resolve this point's (failure-dist
  // shape, seed) scenario against the grid-level registry. Points that
  // differ only in lambda / period / procs map to the *same* pool, so the
  // whole sweep pays for unit-variate generation once, and point-to-point
  // differences are CRN comparisons. The shared_ptr keeps the pool alive
  // through this evaluation; a null cache (or an ineligible spec) leaves
  // replication.shared_units null — independent sampling, the historical
  // behaviour. Extended systems get no pool either (sim::crn_eligible).
  sim::ReplicationOptions replication = spec.replication;
  std::shared_ptr<sim::UnitVariatePool> crn_pool;
  if (spec.crn != nullptr) {
    crn_pool = sim::crn_pool(sys, replication.seed, spec.crn);
    replication.shared_units = crn_pool.get();
  }

  if (spec.simulate_numerical) {
    out.sim_numerical =
        sim::simulate_overhead(sys, out.numerical_pattern(), replication,
                               sim_pool, &sim_scratch);
  }

  if (spec.sim_optimize) {
    // The sim-driven search builds its own search-local CRN pool when
    // none is supplied; a grid-level pool extends the sharing across
    // points (the search's seed is the replication seed either way).
    core::SimAllocationSearchOptions sim_search = spec.sim_search;
    if (crn_pool != nullptr &&
        sim_search.period.replication.seed == replication.seed) {
      sim_search.period.replication.shared_units = crn_pool.get();
    }
    if (fixed_procs.has_value()) {
      out.sim_period = core::sim_optimal_period(
          sys, *fixed_procs, sim_search.period, sim_pool);
    } else {
      out.sim_allocation =
          core::sim_optimal_allocation(sys, sim_search, sim_pool);
    }
  }

  if (spec.simulate_first_order) {
    const bool have_fo =
        fixed_procs.has_value()
            ? (out.fo_period.has_value() && std::isfinite(*out.fo_period))
            : (out.first_order.has_value() && out.first_order->has_optimum);
    if (have_fo) {
      out.sim_first_order =
          sim::simulate_overhead(sys, out.first_order_pattern(),
                                 replication, sim_pool, &sim_scratch);
    }
  }

  return out;
}

EvalSpec apply_eval_axes(const EvalSpec& base, const Point& pt) {
  EvalSpec spec = base;
  if (pt.has_var("ci_rel_tol")) {
    spec.sim_search.period.adaptive.ci_rel_tol = pt.var("ci_rel_tol");
  }
  if (pt.has_var("max_reps")) {
    auto& adaptive = spec.sim_search.period.adaptive;
    adaptive.max_replicas =
        static_cast<std::size_t>(pt.var("max_reps"));
    // A cap below the starting count means the cap wins (mirrors the
    // CLI's --max-reps handling); leaving min above max would trip the
    // adaptive driver's precondition and kill the whole sweep.
    adaptive.min_replicas =
        std::min(adaptive.min_replicas, adaptive.max_replicas);
  }
  return spec;
}

}  // namespace ayd::engine
