// Ablation / extension: the three resilience protocols side by side —
// base VC (one verification + one stable checkpoint per pattern), multi-
// verification (n verifications, one checkpoint; catches silent errors
// early but still rolls the whole pattern back), and two-level (n
// verified in-memory checkpoints per stable checkpoint; silent errors
// re-execute one segment only). Both extensions instantiate the paper's
// §V "multi-level resilience protocols" future work. Multi-verification
// also shows its first-order plan n* = sqrt(λs·C/((λf+λs)V)) next to the
// exact optimum, and its period next to the VC one.

#include <cstdio>
#include <string>

#include "bench_common.hpp"

#include "ayd/core/segmented.hpp"
#include "ayd/engine/engine.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/util/strings.hpp"

int main(int argc, char** argv) {
  using namespace ayd;
  return bench::run_experiment_main(
      argc, argv,
      "Ablation — VC vs multi-verification vs two-level checkpointing",
      "single-level, multi-verification and two-level protocols at each "
      "platform's measured allocation",
      [](cli::ArgParser& p) {
        p.add_option("scenario", "3", "Table III scenario (1-6)");
      },
      [](const cli::ArgParser& args, const cli::ExperimentContext& ctx) {
        const model::Scenario scenario =
            model::scenario_from_string(args.option("scenario"));
        auto pool = ctx.make_pool();

        engine::GridSpec grid;
        grid.platforms(model::all_platforms());

        engine::EvalSpec spec;
        spec.numerical = true;
        spec.simulate_numerical = true;
        spec.replication = ctx.replication();

        // Only four grid points: keep the points serial and let each
        // simulation fan its replicas out over the whole pool instead.
        const auto records =
            engine::run_grid(grid, nullptr, [&](const engine::Point& pt) {
              const model::System sys =
                  model::System::from_platform(*pt.platform, scenario);
              const double p = pt.platform->measured_procs;

              const engine::PointEval base =
                  engine::evaluate_point(sys, spec, p, pool.get());

              const core::SegmentedPlan mv_plan =
                  core::optimal_segmented_plan(sys, p);
              const core::SegmentedOptimum mv =
                  core::optimal_segmented_pattern(sys, p);
              const sim::ReplicationResult mv_sim =
                  sim::simulate_segmented_overhead(
                      sys, {mv.period, p, mv.segments}, ctx.replication(),
                      pool.get());

              const core::TwoLevelSystem two_sys =
                  core::TwoLevelSystem::with_memory_level1(sys);
              const core::SegmentedOptimum two =
                  core::optimal_segmented_pattern(two_sys, p);
              const sim::ReplicationResult two_sim =
                  sim::simulate_segmented_overhead(
                      two_sys, {two.period, p, two.segments},
                      ctx.replication(), pool.get());

              const double base_mean = base.sim_numerical->overhead.mean;
              const auto gain = [&](double h) {
                return util::format_sig(
                           100.0 * (base_mean - h) / base_mean, 3) + "%";
              };
              engine::Record r;
              r.set("Platform", pt.platform->name);
              r.set("n mv FO", std::to_string(mv_plan.segments));
              r.set("n mv", std::to_string(mv.segments));
              r.set("T* VC", base.period->period);
              r.set("T* mv", mv.period);
              r.set("H VC",
                    engine::mean_ci_cell(base.sim_numerical->overhead, 4));
              r.set("H multi-verif", engine::mean_ci_cell(mv_sim.overhead, 4));
              r.set("n 2L", std::to_string(two.segments));
              r.set("H two-level", engine::mean_ci_cell(two_sim.overhead, 4));
              r.set("gain mv", gain(mv_sim.overhead.mean));
              r.set("gain 2L", gain(two_sim.overhead.mean));
              return r;
            });

        engine::TableSink table({{"Platform", "", 4, "", io::Align::kLeft},
                                 {"n mv FO"},
                                 {"n mv"},
                                 {"T* VC", "", 4},
                                 {"T* mv", "", 4},
                                 {"H VC"},
                                 {"H multi-verif"},
                                 {"n 2L"},
                                 {"H two-level"},
                                 {"gain mv"},
                                 {"gain 2L"}});
        engine::emit(records, {&table});
        std::printf("%s", table.to_string().c_str());
        std::printf(
            "\nTwo-level dominates multi-verification everywhere: both "
            "catch silent errors at segment boundaries, but only the "
            "two-level protocol's in-memory checkpoints avoid re-executing "
            "the segments that already verified clean. It also segments "
            "deeper (larger n): an extra boundary costs one more in-memory "
            "copy yet shrinks the silent rollback to a single segment, so "
            "n* ~ sqrt(2 lambda_s (C-L) / (lambda_f (V+L))) grows as "
            "fail-stops get rarer — most visibly on Atlas (f = 0.0625). "
            "Multi-verification's n* grows with the silent fraction s and "
            "with C/V; with n = 1 it is Theorem 1 exactly.\n");
      });
}
