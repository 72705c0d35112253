// Figure 10 (beyond the paper): optimum drift under correlated and
// multi-level failure worlds.
//
// The paper's planner — and figs 1-9 — assume i.i.d. per-node failures,
// where the platform interruption rate is f·lambda·P. A correlated world
// (model/correlated.hpp) replaces a fraction rho of that intensity with
// a platform-wide shock stream of rate rho·f·lambda/g: the per-node
// marginal is unchanged, but the *interruption* rate the application
// sees drops to (1-rho)·f·lambda·P + rho·f·lambda/g, so the true optimal
// period lengthens and the i.i.d. plan checkpoints too often. A shock's
// PFS penalty (the phi > 1 row) additionally prices shock-triggered
// rollbacks at the parallel-file-system rate, pushing the optimum back
// down. Each row pits the simulation-true optimum of one correlated
// configuration against the i.i.d. simulation-true optimum of the same
// base system: `period_drift` and `waste_drift` are the fractions by
// which the correlated world moves T* and the achievable overhead.
//
// The default configuration raises lambda_ind to 1e-7/s and the
// fail-stop fraction to 0.95 at P = 256 — a failure-prone, fail-stop-
// dominated stress setup (not a platform preset). Both are deliberate:
// the shock mixture redistributes only the fail-stop stream, so a
// platform like Hera (f = 0.22) keeps 78% of its error budget in the
// i.i.d. silent stream and the optimum barely moves, and at preset
// lambdas the overhead bowl is too flat for CI-scale replication to
// resolve the drift. Fixed seeds throughout: the emitted
// BENCH_fig10.json is byte-identical across runs and thread counts.

#include <cstdio>

#include "bench_common.hpp"

#include "ayd/engine/engine.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/util/strings.hpp"

namespace {

using namespace ayd;

struct WorldConfig {
  double rho;
  double group;
  double pfs_penalty;
};

engine::EvalSpec make_spec(const cli::ExperimentContext& ctx,
                           double ci_rel_tol, std::size_t max_reps) {
  engine::EvalSpec spec;
  spec.sim_optimize = true;
  spec.sim_search.period.replication = ctx.replication();
  spec.sim_search.period.adaptive.ci_rel_tol = ci_rel_tol;
  spec.sim_search.period.adaptive.min_replicas = ctx.runs;
  spec.sim_search.period.adaptive.max_replicas =
      std::max(max_reps, ctx.runs);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_experiment_main(
      argc, argv,
      "Figure 10 — optimum drift under correlated failure worlds",
      "simulation-true optimal period and waste of correlated node-group "
      "failure worlds (shock mixture, optional two-tier recovery) "
      "against the i.i.d. optimum of the same base system",
      [](cli::ArgParser& p) {
        p.add_option("platform", "hera", "platform preset for the costs");
        p.add_option("scenario", "1", "Table III resilience scenario");
        p.add_option("alpha", "0.1", "sequential fraction");
        p.add_option("lambda", "1e-7",
                     "per-processor error rate of the stress setup (1/s)");
        p.add_option("fail-stop", "0.95",
                     "fail-stop fraction of the stress setup (the shock "
                     "mixture redistributes only the fail-stop stream)");
        p.add_option("procs", "256", "fixed allocation P");
        p.add_option("ci-rel-tol", "0.01",
                     "adaptive replication CI target (relative)");
        p.add_option("max-reps", "4096",
                     "adaptive replication cap per candidate");
      },
      [](const cli::ArgParser& args, const cli::ExperimentContext& ctx) {
        const model::Platform platform =
            model::platform_by_name(args.option("platform"));
        const model::Scenario scenario =
            model::scenario_from_string(args.option("scenario"));
        const double procs = args.option_double("procs");
        auto pool = ctx.make_pool();

        const model::System preset =
            model::System::from_platform(platform, scenario,
                                         args.option_double("alpha"));
        const model::System base(
            model::FailureModel(args.option_double("lambda"),
                                args.option_double("fail-stop")),
            preset.costs(), preset.downtime(), preset.speedup_model());
        const engine::EvalSpec spec = make_spec(
            ctx, args.option_double("ci-rel-tol"),
            static_cast<std::size_t>(args.option_uint("max-reps")));

        // The i.i.d. reference optimum every row drifts against.
        const engine::PointEval iid =
            engine::evaluate_point(base, spec, procs, pool.get());
        const core::SimPeriodOptimum& iid_opt = *iid.sim_period;

        // Interruption-rate ratio vs i.i.d.: r = (1-rho) + rho/(gP).
        // Strong correlation (small r) separates the optima well past
        // the replication noise of the adaptive CI target; weak shocks
        // leave the quadratic bowl around T* too flat to resolve.
        const std::vector<WorldConfig> configs = {
            {0.7, 0.02, 1.0},
            {0.9, 0.05, 1.0},
            {0.9, 0.02, 1.0},
            {0.9, 0.05, 8.0},
        };

        std::vector<engine::Record> records;
        for (const WorldConfig& cfg : configs) {
          const model::System sys =
              base.with_shock({cfg.rho, cfg.group, {}, cfg.pfs_penalty});
          const engine::PointEval ev =
              engine::evaluate_point(sys, spec, procs, pool.get());
          const core::SimPeriodOptimum& opt = *ev.sim_period;

          // Shock telemetry at the correlated optimum (fixed-count
          // replication; the drift columns above carry the CIs).
          static thread_local sim::ReplicationScratch scratch;
          const sim::ReplicationResult at_opt = sim::simulate_overhead(
              sys, {opt.period, procs}, ctx.replication(), pool.get(),
              &scratch);

          engine::Record r;
          r.set("rho", cfg.rho);
          r.set("group", cfg.group);
          r.set("pfs_penalty", cfg.pfs_penalty);
          r.set("iid_period", iid_opt.period);
          r.set("corr_period", opt.period);
          r.set("period_drift", opt.period / iid_opt.period - 1.0);
          r.set("iid_overhead", iid_opt.overhead.mean);
          r.set("corr_overhead", opt.overhead.mean);
          r.set("corr_cell", engine::mean_ci_cell(opt.overhead));
          r.set("waste_drift",
                opt.overhead.mean / iid_opt.overhead.mean - 1.0);
          r.set("shocks_per_pattern", at_opt.shock_errors_per_pattern);
          r.set("replicas", static_cast<double>(opt.total_replicas));
          r.set("ci_ok",
                opt.ci_converged && iid_opt.ci_converged ? 1.0 : 0.0);
          records.push_back(std::move(r));
        }

        std::printf(
            "costs %s scenario %s, lambda_ind=%s/s, f=%s, P=%s; i.i.d. "
            "T*=%s, H=%s\n\n",
            platform.name.c_str(), model::scenario_name(scenario).c_str(),
            util::format_sig(args.option_double("lambda")).c_str(),
            util::format_sig(args.option_double("fail-stop")).c_str(),
            util::format_sig(procs).c_str(),
            util::format_sig(iid_opt.period, 4).c_str(),
            util::format_sig(iid_opt.overhead.mean, 4).c_str());
        engine::TableSink table({{"rho", "rho", 2},
                                 {"g", "group", 2},
                                 {"phi", "pfs_penalty", 2},
                                 {"T* (corr)", "corr_period", 4},
                                 {"T drift", "period_drift", 3},
                                 {"H (corr)", "corr_cell"},
                                 {"H drift", "waste_drift", 3},
                                 {"shocks/pat", "shocks_per_pattern", 3},
                                 {"reps", "replicas", 4}});
        engine::emit(records, {&table});
        std::printf("%s\n", table.to_string().c_str());
        std::printf(
            "T drift > 0: correlation concentrates failures into rarer "
            "platform events, so the true optimum checkpoints less often "
            "than the i.i.d. plan; the two-tier row (phi > 1) pays PFS "
            "recoveries on shock rollbacks and gives part of it back.\n");

        const std::vector<engine::ColumnSpec> series{
            {"rho", "rho", 4},
            {"group", "group", 4},
            {"pfs_penalty", "pfs_penalty", 4},
            {"iid_period", "iid_period", 6},
            {"corr_period", "corr_period", 6},
            {"period_drift", "period_drift", 6},
            {"iid_overhead", "iid_overhead", 6},
            {"corr_overhead", "corr_overhead", 6},
            {"waste_drift", "waste_drift", 6},
            {"shocks_per_pattern", "shocks_per_pattern", 6},
            {"replicas", "replicas", 6},
            {"ci_ok", "ci_ok", 1}};
        engine::CsvSink csv(ctx.csv_path, series);
        engine::JsonlSink jsonl(ctx.jsonl_path, series);
        engine::emit(records, {&csv, &jsonl});
      });
}
