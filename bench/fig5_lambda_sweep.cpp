// Reproduces Figure 5 (platform Hera, α = 0.1): asymptotic behaviour of
// the optimal pattern as the individual error rate λ_ind decreases.
// The paper's headline: P* = Θ(λ^{-1/4}), T* = Θ(λ^{-1/2}) under a linear
// checkpoint cost (scenario 1), and P*, T* = Θ(λ^{-1/3}) under constant
// cost (scenarios 3 and 5). The harness prints the sweep and the fitted
// log-log slopes next to the theoretical exponents.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_common.hpp"

#include "ayd/engine/engine.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/rng/simd.hpp"
#include "ayd/stats/summary.hpp"
#include "ayd/util/strings.hpp"

namespace {

std::vector<double> log10_of(std::vector<double> xs) {
  for (double& x : xs) x = std::log10(x);
  return xs;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ayd;
  return bench::run_experiment_main(
      argc, argv, "Figure 5 — impact of the error rate (Hera, alpha=0.1)",
      "P*, T*, overhead vs lambda_ind; fitted log-log slopes vs theory",
      [](cli::ArgParser& p) {
        p.add_option("platform", "hera", "platform preset to sweep");
        p.add_option("alpha", "0.1", "sequential fraction");
        p.add_flag("crn",
                   "share one common-random-number variate pool across "
                   "all lambda points (one sampling pass per grid)");
      },
      [](const cli::ArgParser& args, const cli::ExperimentContext& ctx) {
        const model::Platform platform =
            model::platform_by_name(args.option("platform"));
        const double alpha = args.option_double("alpha");
        auto pool = ctx.make_pool();

        engine::GridSpec grid;
        grid.scenarios({model::Scenario::kS1, model::Scenario::kS3,
                        model::Scenario::kS5})
            .axis(engine::Axis::list("lambda",
                                     {1e-12, 1e-11, 1e-10, 1e-9, 1e-8}));

        engine::EvalSpec spec;
        spec.first_order = true;
        spec.numerical = true;
        spec.simulate_numerical = true;
        spec.search.max_procs = 1e10;
        spec.replication = ctx.replication();
        sim::VariateCache crn_cache;  // outlives the grid run
        if (args.flag("crn")) spec.crn = &crn_cache;
        const engine::SystemSpec base{platform, model::Scenario::kS1, alpha};

        const auto sweep_t0 = std::chrono::steady_clock::now();
        const auto records =
            engine::run_grid(grid, pool.get(), [&](const engine::Point& pt) {
              const model::System sys = engine::system_for_point(base, pt);
              const engine::PointEval ev = engine::evaluate_point(sys, spec);
              engine::Record r;
              r.set("scenario", model::scenario_name(*pt.scenario));
              r.set("lambda", pt.var("lambda"));
              if (ev.first_order->has_optimum) {
                r.set("fo_procs", ev.first_order->procs);
                r.set("fo_period", ev.first_order->period);
                r.set("fo_overhead", ev.first_order->overhead);
              }
              r.set("opt_procs", ev.allocation->procs);
              r.set("opt_period", ev.allocation->period);
              r.set("sim_cell",
                    engine::mean_ci_cell(ev.sim_numerical->overhead, 4));
              r.set("sim_overhead", ev.sim_numerical->overhead.mean);
              return r;
            });

        for (const auto& [name, group] :
             engine::group_by(records, "scenario")) {
          const model::Scenario scenario = model::scenario_from_string(name);
          const model::System sys = model::System::from_platform(
              platform, scenario, alpha);
          const auto orders = core::asymptotic_orders(
              model::classify(sys.costs()).first_order_case);
          std::printf("== scenario %s (%s) ==\n", name.c_str(),
                      model::scenario_description(scenario).c_str());
          engine::TableSink table({{"lambda", "", 3},
                                   {"P* (FO)", "fo_procs", 4},
                                   {"P* (opt)", "opt_procs", 4},
                                   {"T* (FO)", "fo_period", 4},
                                   {"T* (opt)", "opt_period", 4},
                                   {"H pred (FO)", "fo_overhead", 4},
                                   {"H sim (opt)", "sim_cell"}});
          engine::emit(group, {&table});
          std::printf("%s", table.to_string().c_str());

          const auto log_l = log10_of(engine::collect(group, "lambda"));
          const auto p_fit = stats::linear_fit(
              log_l, log10_of(engine::collect(group, "opt_procs")));
          const auto t_fit = stats::linear_fit(
              log_l, log10_of(engine::collect(group, "opt_period")));
          std::printf(
              "fitted slopes (numerical optimum): P* ~ lambda^%s (theory "
              "%s), T* ~ lambda^%s (theory %s)\n\n",
              util::format_sig(p_fit.slope, 3).c_str(),
              util::format_sig(orders.p_exponent, 3).c_str(),
              util::format_sig(t_fit.slope, 3).c_str(),
              util::format_sig(orders.t_exponent, 3).c_str());
        }
        std::printf(
            "Expected shape (paper): scenario 1 slopes -1/4 and -1/2; "
            "scenarios 3 and 5 slopes -1/3 and -1/3; overhead tends to "
            "alpha as lambda -> 0.\n");

        // Grep-able speedup row, comparable across runs on one machine:
        // sweep wall time and replication throughput, plus the number of
        // shared variate pools when --crn made the sweep a single
        // sampling pass per (failure-dist shape, seed).
        {
          const double sweep_s = bench::seconds_since(sweep_t0);
          const auto opts = ctx.replication();
          const double replications =
              static_cast<double>(records.size()) *
              static_cast<double>(opts.replicas);
          std::printf(
              "FIG-BENCH fig5 [%s]: %zu points  %.3fs  %.0f replications/s"
              "%s  crn pools: %zu\n",
              rng::simd::tier_name(rng::simd::active_tier()), records.size(),
              sweep_s, replications / sweep_s,
              args.flag("crn") ? "  (one sampling pass per shared pool)"
                               : "",
              crn_cache.size());
        }

        const std::vector<engine::ColumnSpec> series{
            {"scenario"},
            {"lambda", "", 6},
            {"opt_procs", "", 6},
            {"opt_period", "", 6},
            {"sim_overhead", "", 6}};
        engine::CsvSink csv(ctx.csv_path, series);
        engine::JsonlSink jsonl(ctx.jsonl_path, series);
        engine::emit(records, {&csv, &jsonl});
      });
}
