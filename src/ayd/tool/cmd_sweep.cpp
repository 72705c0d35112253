// `ayd sweep` — one-variable parameter sweeps over the optimal pattern:
// the programmable versions of the paper's Figures 3-7. Each row gives the
// first-order and numerical optima at one value of the swept variable;
// --csv dumps the series for plotting. The sweep itself is an engine grid:
// a one-axis GridSpec evaluated point-parallel and emitted through the
// table/CSV/JSONL sinks.

#include "ayd/tool/commands.hpp"

#include <cmath>
#include <ostream>

#include "ayd/engine/engine.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/util/error.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::tool {

namespace {

void validate_variable(const std::string& s) {
  if (s == "lambda" || s == "alpha" || s == "procs" || s == "downtime" ||
      s == "weibull-k" || s == "lognormal-sigma" || s == "shock-rho" ||
      s == "shock-group" || s == "pfs-penalty") {
    return;
  }
  throw util::CliError("unknown sweep variable: " + s +
                       " (expected lambda, alpha, procs, downtime, "
                       "weibull-k, lognormal-sigma, shock-rho, "
                       "shock-group, pfs-penalty)");
}

/// CLI variables use dashes; engine axis names use underscores.
std::string axis_name(std::string var) {
  for (char& c : var) {
    if (c == '-') c = '_';
  }
  return var;
}

}  // namespace

int cmd_sweep(const std::vector<std::string>& args, std::ostream& out) {
  cli::ArgParser parser(
      "ayd sweep",
      "sweep one variable and tabulate the optimal pattern at each value "
      "(generalises the paper's Figures 3-7)");
  add_system_options(parser);
  add_simulation_options(parser);
  parser.add_option("var", "lambda",
                    "swept variable: lambda, alpha, procs, downtime, "
                    "weibull-k, lognormal-sigma, shock-rho, shock-group, "
                    "pfs-penalty");
  parser.add_option("from", "1e-12", "lower end of the sweep");
  parser.add_option("to", "1e-8", "upper end of the sweep");
  parser.add_option("points", "5", "number of grid points");
  parser.add_flag("linear", "force linear spacing (default: log spacing "
                            "for lambda/alpha/procs, linear for downtime "
                            "and the distribution-shape variables)");
  parser.add_flag("simulate",
                  "also simulate the numerically optimal pattern at each "
                  "point under the configured --failure-dist (implied for "
                  "the distribution-shape variables, whose effect is "
                  "invisible to the analytic columns)");
  parser.add_flag("crn",
                  "common random numbers: share one unit-variate pool "
                  "across all points of the sweep (one sampling pass per "
                  "grid; identical results to independent sampling under "
                  "AYD_SIMD=off, and smoother point-to-point differences "
                  "everywhere)");
  parser.add_option("max-procs", "1e7",
                    "upper edge of the numerical allocation search");
  parser.add_option("threads", "0",
                    "worker threads (0 = hardware concurrency)");
  parser.add_option("csv", "", "also write the series to this CSV file");
  parser.add_option("jsonl", "",
                    "also write the series to this JSON-lines file");
  if (parse_or_help(parser, args, out)) return 0;

  const std::string var = parser.option("var");
  validate_variable(var);
  // A shock-rho axis supplies the shock a --pfs-penalty needs; the
  // penalty then rides on every point (below).
  const model::System base =
      system_from_args(parser, /*shock_from_axis=*/var == "shock-rho");
  // The axis overwrites its own option at every point, and an alpha axis
  // sets the Amdahl profile, so these would only relabel the header.
  if ((var == "lambda" || var == "alpha" || var == "downtime" ||
       var == "pfs-penalty") &&
      parser.given(var)) {
    throw util::CliError("--" + var + " is the swept variable (--var " + var +
                         "); its value comes from --from/--to");
  }
  // An axis also replaces its part of --failure-dist at every point: the
  // rate for lambda, the law for the shape axes (whose rate entries still
  // apply).
  const bool law_axis = var == "weibull-k" || var == "lognormal-sigma";
  const ParsedFailureDist dist =
      parse_failure_dist(parser.option("failure-dist"));
  if ((var == "lambda" && dist.lambda_override.has_value()) ||
      (law_axis && dist.spec.kind() != model::FailureDistKind::kExponential)) {
    throw util::CliError("--var " + var + " sets the failure " +
                         (law_axis ? "law" : "rate") +
                         " at every point, so it cannot honour "
                         "--failure-dist " + parser.option("failure-dist"));
  }
  if (var == "procs" && parser.given("max-procs")) {
    throw util::CliError("--max-procs bounds the allocation search, which a "
                         "--var procs sweep does not run");
  }
  if (var == "alpha" && util::to_lower(parser.option("profile")) != "amdahl") {
    throw util::CliError("--var alpha sweeps the amdahl profile; it cannot "
                         "honour --profile " + parser.option("profile"));
  }
  const std::string axis = axis_name(var);
  const bool ext_sweep = var == "shock-rho" || var == "shock-group" ||
                         var == "pfs-penalty";
  const bool log_spacing = !parser.flag("linear") && var != "downtime" &&
                           !law_axis && !ext_sweep;
  const bool fixed_procs = var == "procs";
  const bool shape_sweep = law_axis || ext_sweep;
  // The analytic columns assume exponential i.i.d. arrivals, so a shape
  // or correlated-world sweep without simulation would print rows
  // independent of the swept value.
  const bool simulate = parser.flag("simulate") || shape_sweep;
  refuse_unless_simulating(
      parser, simulate,
      {"des", "crn", "runs", "patterns", "seed", "shock", "hetero"});

  // The --from/--to defaults are lambda-oriented; catch out-of-range
  // shape sweeps here with a message naming the flags instead of letting
  // FailureDistSpec throw from inside the evaluation loop.
  if (var == "weibull-k" && (parser.option_double("from") < 0.01 ||
                             parser.option_double("to") > 100.0)) {
    throw util::CliError(
        "--var weibull-k needs --from/--to within [0.01, 100] "
        "(e.g. --from 0.5 --to 2); the defaults target lambda sweeps");
  }
  if (var == "lognormal-sigma" && (parser.option_double("from") <= 0.0 ||
                                   parser.option_double("to") > 10.0)) {
    throw util::CliError(
        "--var lognormal-sigma needs --from/--to within (0, 10] "
        "(e.g. --from 0.4 --to 1.6); the defaults target lambda sweeps");
  }
  if (var == "shock-rho" && (parser.option_double("from") < 0.0 ||
                             parser.option_double("to") >= 1.0)) {
    throw util::CliError(
        "--var shock-rho needs --from/--to within [0, 1) "
        "(e.g. --from 0 --to 0.6); the defaults target lambda sweeps");
  }
  if (var == "shock-group" && (parser.option_double("from") <= 0.0 ||
                               parser.option_double("to") > 1.0)) {
    throw util::CliError(
        "--var shock-group needs --from/--to within (0, 1] "
        "(e.g. --from 0.01 --to 0.5); the defaults target lambda sweeps");
  }
  if (var == "pfs-penalty" && (parser.option_double("from") < 1.0 ||
                               parser.option_double("to") < 1.0)) {
    throw util::CliError(
        "--var pfs-penalty needs --from/--to >= 1 (PHI multiplies the "
        "burst-buffer recovery cost); the defaults target lambda sweeps");
  }
  // A PFS-penalty sweep is invisible unless shocks actually occur, and a
  // group-fraction sweep needs a correlation to scale.
  if ((var == "pfs-penalty" || var == "shock-group") &&
      (base.extension() == nullptr ||
       !base.extension()->shock.has_value())) {
    throw util::CliError("--var " + var +
                         " needs --shock rho=... (the swept value only "
                         "matters when shocks occur)");
  }

  const std::int64_t points = parser.option_int("points");
  if (points < 2) {
    throw util::CliError("--points must be >= 2 (a sweep needs at least "
                         "two points)");
  }
  const double from = parser.option_double("from");
  const double to = parser.option_double("to");
  if (!(to > from)) {
    throw util::CliError("--to must be greater than --from (got --from " +
                         parser.option("from") + " --to " +
                         parser.option("to") + ")");
  }
  if (log_spacing && !(from > 0.0)) {
    throw util::CliError("--from must be > 0 on a log-spaced axis (got " +
                         parser.option("from") +
                         "; pass --linear for a linear sweep)");
  }
  engine::GridSpec grid;
  grid.axis(engine::Axis::spaced(axis, from, to, static_cast<int>(points),
                                 log_spacing));
  if (var == "shock-rho" && parser.given("pfs-penalty")) {
    grid.axis(engine::Axis::list("pfs_penalty",
                                 {parser.option_double("pfs-penalty")}));
  }

  engine::EvalSpec spec;
  spec.first_order = true;
  spec.numerical = true;
  spec.simulate_numerical = simulate;
  spec.replication = replication_from_args(parser);
  spec.search.max_procs = procs_from_args(parser, "max-procs");
  // The cache must outlive the grid run; pools resolve lazily per
  // (shape, seed) scenario as points evaluate.
  sim::VariateCache crn_cache;
  if (parser.flag("crn") && simulate) spec.crn = &crn_cache;

  print_system(base, out);
  const auto pts = grid.points();
  out << "sweeping " << var << " over ["
      << util::format_sig(pts.front().var(axis), 4) << ", "
      << util::format_sig(pts.back().var(axis), 4) << "], " << pts.size()
      << " points\n";
  if (shape_sweep) {
    out << "(analytic columns assume exponential i.i.d. arrivals; the "
           "swept value only moves H (sim))\n";
  }
  out << "\n";

  exec::ThreadPool pool(static_cast<unsigned>(parser.option_uint("threads")));
  const auto records =
      engine::run_points(pts, &pool, [&](const engine::Point& pt) {
        const model::System sys = engine::apply_axes(base, pt);
        engine::Record r;
        r.set("x", pt.var(axis));
        if (fixed_procs) {
          // procs sweep: Theorem 1 vs exact period optimum at fixed P.
          const double p = pt.var(axis);
          const engine::PointEval ev = engine::evaluate_point(sys, spec, p);
          r.set("opt_procs", p);
          if (std::isfinite(*ev.fo_period)) {
            r.set("fo_procs", p);
            r.set("fo_period", *ev.fo_period);
            r.set("fo_overhead",
                  core::optimal_overhead_fixed_procs(sys, p));
          } else {
            r.set("fo_procs", p);
          }
          r.set("opt_period", ev.period->period);
          r.set("opt_overhead", ev.period->overhead);
          if (ev.sim_numerical.has_value()) {
            r.set("sim_overhead", ev.sim_numerical->overhead.mean);
            r.set("sim_cell",
                  engine::mean_ci_cell(ev.sim_numerical->overhead));
          }
        } else {
          const engine::PointEval ev = engine::evaluate_point(sys, spec);
          if (ev.first_order->has_optimum) {
            r.set("fo_procs", ev.first_order->procs);
            r.set("fo_period", ev.first_order->period);
            r.set("fo_overhead", ev.first_order->overhead);
          }
          r.set("opt_procs", ev.allocation->procs);
          r.set("opt_period", ev.allocation->period);
          r.set("opt_overhead", ev.allocation->overhead);
          if (ev.sim_numerical.has_value()) {
            r.set("sim_overhead", ev.sim_numerical->overhead.mean);
            r.set("sim_cell",
                  engine::mean_ci_cell(ev.sim_numerical->overhead));
          }
        }
        return r;
      });

  std::vector<engine::ColumnSpec> table_cols{{var, "x", 4},
                                             {"P* (FO)", "fo_procs", 4},
                                             {"T* (FO)", "fo_period", 4},
                                             {"H (FO)", "fo_overhead", 4},
                                             {"P* (opt)", "opt_procs", 4},
                                             {"T* (opt)", "opt_period", 4},
                                             {"H (opt)", "opt_overhead", 4}};
  std::vector<engine::ColumnSpec> series_cols{{var, "x", 4},
                                              {"procs_fo", "fo_procs", 4},
                                              {"period_fo", "fo_period", 4},
                                              {"overhead_fo", "fo_overhead", 4},
                                              {"procs_opt", "opt_procs", 4},
                                              {"period_opt", "opt_period", 4},
                                              {"overhead_opt", "opt_overhead",
                                               4}};
  if (simulate) {
    table_cols.push_back({"H (sim)", "sim_cell"});
    series_cols.push_back({"overhead_sim", "sim_overhead", 6});
  }

  engine::TableSink table(table_cols);
  engine::CsvSink csv(parser.option("csv"), series_cols, &out);
  std::vector<engine::ColumnSpec> jsonl_cols;
  for (const auto& col : series_cols) {
    jsonl_cols.push_back({col.header, col.field()});
  }
  engine::JsonlSink jsonl(parser.option("jsonl"), jsonl_cols);
  engine::emit(records, {&table});
  out << table.to_string();
  engine::emit(records, {&csv, &jsonl});
  return 0;
}

}  // namespace ayd::tool
