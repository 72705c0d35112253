#include "ayd/tool/optimize_json.hpp"

#include <cmath>

#include "ayd/core/first_order.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/overhead.hpp"
#include "ayd/core/young_daly.hpp"
#include "ayd/tool/commands.hpp"

namespace ayd::tool {

namespace {

/// The --max-procs default, "1e7".
constexpr double kDefaultMaxProcs = 1e7;

/// The shared shape of the "simulated" JSON object for both search modes.
void write_sim_json(io::JsonWriter& w, double period, double procs,
                    const stats::Summary& overhead, std::uint64_t total,
                    bool used_closed_form, bool converged, bool ci_converged,
                    bool ci_limited, bool at_boundary) {
  w.key("simulated");
  w.begin_object();
  if (procs > 0.0) w.kv("procs", procs);
  w.kv("period", period);
  w.kv("overhead", overhead.mean);
  w.kv("overhead_ci_lo", overhead.ci.lo);
  w.kv("overhead_ci_hi", overhead.ci.hi);
  w.kv("replicas", static_cast<double>(overhead.count));
  w.kv("total_replicas", static_cast<double>(total));
  w.kv("used_closed_form", used_closed_form);
  w.kv("converged", converged);
  w.kv("ci_converged", ci_converged);
  w.kv("ci_limited", ci_limited);
  w.kv("at_boundary", at_boundary);
  w.end_object();
}

}  // namespace

void add_optimize_options(cli::ArgParser& parser) {
  add_system_options(parser);
  parser.add_option("procs", "",
                    "fix the processor count and optimise the period only "
                    "(Theorem 1 mode)");
  parser.add_option("max-procs", "1e7",
                    "upper edge of the numerical allocation search "
                    "(refused with --procs)");
  add_simulation_options(parser);
  parser.add_flag("simulate",
                  "also search for the simulation-true optimum under the "
                  "configured --failure-dist (adaptive replication with "
                  "confidence intervals; exact closed-form fallback for "
                  "exponential inputs)");
  parser.add_option("ci-rel-tol", "0.02",
                    "adaptive replication target: CI half-width <= this "
                    "fraction of the mean overhead");
  parser.add_option("max-reps", "4096",
                    "adaptive replication cap per candidate pattern");
}

OptimizeRequest optimize_request_from_args(const cli::ArgParser& parser) {
  OptimizeRequest req;
  if (!parser.option("procs").empty()) {
    req.procs = procs_from_args(parser, "procs");
  }
  req.max_procs = procs_from_args(parser, "max-procs");
  // The explicit default stays a spelling of the same question.
  if (req.procs.has_value() && req.max_procs != kDefaultMaxProcs) {
    throw util::CliError("--max-procs bounds the allocation search, which "
                         "--procs replaces with a fixed processor count");
  }
  req.simulate = parser.flag("simulate");
  refuse_unless_simulating(
      parser, req.simulate,
      {"des", "runs", "patterns", "seed", "ci-rel-tol", "max-reps", "shock",
       "hetero"});
  // Only resolved (and validated) when the simulated search will run; an
  // analytic request refuses the simulation options it was given (above)
  // and never validates their defaults.
  if (req.simulate) {
    req.sim_search.max_procs = req.max_procs;
    req.sim_search.period = search_options_from_args(parser);
  }
  return req;
}

void write_optimize_record(io::JsonWriter& w, const model::System& sys,
                           const OptimizeRequest& req,
                           exec::ThreadPool* pool) {
  w.begin_object();
  w.key("system");
  w.begin_object();
  w.kv("lambda_ind", sys.failure().lambda_ind());
  w.kv("fail_stop_fraction", sys.failure().fail_stop_fraction());
  w.kv("downtime", sys.downtime());
  w.kv("profile", sys.speedup_model().name());
  w.kv("failure_dist", sys.failure().dist().to_string());
  w.kv("checkpoint", sys.costs().checkpoint.describe());
  w.kv("verification", sys.costs().verification.describe());
  w.end_object();
  if (req.procs.has_value()) {
    // Fixed allocation: Theorem 1 against the exact period optimum.
    const double procs = *req.procs;
    w.kv("procs", procs);
    const double t_fo = core::optimal_period_first_order(sys, procs);
    const core::PeriodOptimum num = core::optimal_period(sys, procs);
    w.key("first_order");
    w.begin_object();
    w.kv("period", t_fo);
    if (std::isfinite(t_fo)) {
      w.kv("overhead", core::pattern_overhead(sys, {t_fo, procs}));
    }
    w.end_object();
    if (std::isfinite(t_fo)) {
      const double t_ho = core::daly_period_vc(sys, procs);
      w.key("higher_order");
      w.begin_object();
      w.kv("period", t_ho);
      w.kv("overhead", core::pattern_overhead(sys, {t_ho, procs}));
      w.end_object();
    }
    w.key("numerical");
    w.begin_object();
    w.kv("period", num.period);
    w.kv("overhead", num.overhead);
    w.kv("at_boundary", num.at_boundary);
    w.end_object();
    if (req.simulate) {
      const core::SimPeriodOptimum sim =
          core::sim_optimal_period(sys, procs, req.sim_search.period, pool);
      write_sim_json(w, sim.period, 0.0, sim.overhead, sim.total_replicas,
                     sim.used_closed_form, sim.converged, sim.ci_converged,
                     sim.ci_limited, sim.at_boundary);
    }
  } else {
    // Joint optimisation.
    const core::FirstOrderSolution fo = core::solve_first_order(sys);
    core::AllocationSearchOptions search;
    search.max_procs = req.max_procs;
    const core::AllocationOptimum num = core::optimal_allocation(sys, search);
    w.key("first_order");
    w.begin_object();
    w.kv("has_optimum", fo.has_optimum);
    if (fo.has_optimum) {
      w.kv("procs", fo.procs);
      w.kv("period", fo.period);
      w.kv("overhead", fo.overhead);
    }
    if (!fo.note.empty()) w.kv("note", fo.note);
    w.end_object();
    w.key("numerical");
    w.begin_object();
    w.kv("procs", num.procs);
    w.kv("period", num.period);
    w.kv("overhead", num.overhead);
    w.kv("at_boundary", num.at_boundary);
    w.end_object();
    if (req.simulate) {
      const core::SimAllocationOptimum sim =
          core::sim_optimal_allocation(sys, req.sim_search, pool);
      write_sim_json(w, sim.period, sim.procs, sim.overhead,
                     sim.total_replicas, sim.used_closed_form, sim.converged,
                     sim.ci_converged, /*ci_limited=*/false, sim.at_boundary);
    }
  }
  w.end_object();
}

}  // namespace ayd::tool
