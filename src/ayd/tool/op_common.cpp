// Shared bodies of the simulate and plan operations: option declaration,
// default resolution, and report math used by both the one-shot CLI
// commands and the planning service (see commands.hpp). Keeping these in
// one place is what guarantees a served answer cannot drift from the
// corresponding `ayd simulate` / `ayd plan` run.

#include "ayd/tool/commands.hpp"

#include <cmath>

#include "ayd/core/overhead.hpp"
#include "ayd/engine/evaluator.hpp"
#include "ayd/util/error.hpp"

namespace ayd::tool {

void add_pattern_options(cli::ArgParser& parser) {
  parser.add_option("period", "",
                    "pattern length T in seconds (default: the numerically "
                    "optimal period for --procs)");
  parser.add_option("procs", "",
                    "processor allocation P (default: the numerically "
                    "optimal allocation)");
}

ResolvedPattern resolve_pattern_from_args(const cli::ArgParser& parser,
                                          const model::System& sys) {
  ResolvedPattern out;
  const bool period_given = !parser.option("period").empty();
  if (period_given) {
    out.period = parser.option_double("period");
    if (!(std::isfinite(out.period) && out.period > 0.0)) {
      throw util::CliError("--period must be finite and > 0");
    }
  }
  engine::EvalSpec defaults;
  defaults.numerical = true;
  if (parser.option("procs").empty()) {
    const engine::PointEval ev = engine::evaluate_point(sys, defaults);
    out.procs = ev.allocation->procs;
    if (!period_given) out.period = ev.allocation->period;
    out.procs_defaulted = true;
  } else {
    out.procs = procs_from_args(parser, "procs");
    if (!period_given) {
      out.period =
          engine::evaluate_point(sys, defaults, out.procs).period->period;
    }
  }
  return out;
}

void add_plan_options(cli::ArgParser& parser) {
  parser.add_option("work", "1e7",
                    "total work W_total in seconds of sequential execution");
  parser.add_option("name", "job", "job name for the report");
  parser.add_option("max-procs", "1e7",
                    "largest allocation available to the job");
}

void add_replan_options(cli::ArgParser& parser) {
  parser.add_option("procs", "",
                    "deployed allocation P the telemetry was observed at "
                    "(default: the numerically optimal allocation)");
  parser.add_option("window", "256", "rolling fit window in events");
  parser.add_option("min-events", "64",
                    "events observed before the first refit");
  parser.add_option("refit-interval", "16",
                    "events between refits once warmed up");
  parser.add_option("drift-ci-level", "0.99",
                    "confidence level of the Student-t bound the mean "
                    "log-likelihood ratio must clear before a re-plan");
  parser.add_option("min-mean-llr", "0.02",
                    "drift noise floor: mean per-event log-likelihood "
                    "ratio (nats) the fresh fit must gain over the "
                    "deployed model");
  add_simulation_options(parser);
  parser.add_option("ci-rel-tol", "0.02",
                    "adaptive replication target of each re-optimization: "
                    "CI half-width <= this fraction of the mean overhead");
  parser.add_option("max-reps", "4096",
                    "adaptive replication cap per candidate pattern");
}

service::ReplanOptions replan_options_from_args(const cli::ArgParser& parser,
                                                const model::System& sys) {
  service::ReplanOptions opt;
  opt.fit.window = static_cast<std::size_t>(parser.option_uint("window"));
  opt.fit.min_events =
      static_cast<std::size_t>(parser.option_uint("min-events"));
  opt.fit.refit_interval =
      static_cast<std::size_t>(parser.option_uint("refit-interval"));
  opt.fit.drift_ci_level = parser.option_double("drift-ci-level");
  opt.fit.min_mean_llr = parser.option_double("min-mean-llr");
  if (opt.fit.window == 0) {
    throw util::CliError("--window must be >= 1");
  }
  if (opt.fit.refit_interval == 0) {
    throw util::CliError("--refit-interval must be >= 1");
  }
  if (!std::isfinite(opt.fit.min_mean_llr)) {
    throw util::CliError("--min-mean-llr must be finite");
  }
  if (!(opt.fit.drift_ci_level > 0.0 && opt.fit.drift_ci_level < 1.0)) {
    throw util::CliError("--drift-ci-level must be in (0, 1)");
  }

  opt.search = search_options_from_args(parser);

  if (parser.option("procs").empty()) {
    engine::EvalSpec defaults;
    defaults.numerical = true;
    opt.procs = engine::evaluate_point(sys, defaults).allocation->procs;
  } else {
    opt.procs = procs_from_args(parser, "procs");
  }
  return opt;
}

void refuse_unplannable(const model::System& sys) {
  const char* const hint =
      " is simulation only, and plan reports the analytic optimum; use "
      "`ayd optimize --simulate` for the optimum under it";
  if (!sys.failure().dist().memoryless()) {
    throw util::CliError("plan: --failure-dist " +
                         sys.failure().dist().to_string() + hint);
  }
  if (const model::CorrelatedSpec* ext = sys.extension()) {
    if (ext->shock.has_value()) {
      throw util::CliError(std::string("plan: --shock") + hint);
    }
    if (ext->heterogeneity.has_value()) {
      throw util::CliError(std::string("plan: --hetero") + hint);
    }
  }
}

PlanReport compute_plan(const model::System& sys,
                        const model::Application& app, double max_procs) {
  core::AllocationSearchOptions search;
  search.max_procs = max_procs;
  PlanReport report;
  report.optimum = core::optimal_allocation(sys, search);
  const core::Pattern best{report.optimum.period, report.optimum.procs};
  report.expected_makespan = core::expected_makespan(sys, best, app);
  report.error_free_makespan =
      app.total_work * sys.error_free_overhead(report.optimum.procs);
  report.patterns = model::pattern_count(app, report.optimum.period,
                                         sys.speedup(report.optimum.procs));
  return report;
}

}  // namespace ayd::tool
