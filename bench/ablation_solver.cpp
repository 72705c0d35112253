// Ablation: our nested 1-D optimiser vs the Jin et al. (ICPP'10)-style
// alternating relaxation the paper cites as the generic numerical method.
// Both minimise the same exact H(T, P); the table shows they land on the
// same optimum, and what each costs (outer evaluations vs rounds).

#include <cstdio>

#include "bench_common.hpp"

#include "ayd/core/baselines.hpp"
#include "ayd/engine/engine.hpp"
#include "ayd/math/special.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"

int main(int argc, char** argv) {
  using namespace ayd;
  return bench::run_experiment_main(
      argc, argv,
      "Ablation — nested optimiser vs Jin-style iterative relaxation",
      "agreement and cost of the two numerical solvers on every scenario",
      [](cli::ArgParser& p) {
        p.add_option("platform", "hera", "platform preset");
      },
      [](const cli::ArgParser& args, const cli::ExperimentContext& ctx) {
        const model::Platform platform =
            model::platform_by_name(args.option("platform"));
        auto pool = ctx.make_pool();

        engine::GridSpec grid;
        grid.scenarios(model::all_scenarios());

        engine::EvalSpec spec;
        spec.numerical = true;
        spec.search.refine_integer = false;
        spec.search.max_procs = 1e7;

        const auto records =
            engine::run_grid(grid, pool.get(), [&](const engine::Point& pt) {
              const model::System sys =
                  model::System::from_platform(platform, *pt.scenario);
              const engine::PointEval ev = engine::evaluate_point(sys, spec);
              const core::JinRelaxationResult jin = core::jin_relaxation(sys);
              engine::Record r;
              r.set("Scn", model::scenario_name(*pt.scenario));
              r.set("nested_procs", ev.allocation->procs_continuous);
              r.set("jin_procs", jin.procs);
              r.set("nested_overhead", ev.allocation->overhead);
              r.set("jin_overhead", jin.overhead);
              r.set("rel_diff",
                    math::rel_diff(ev.allocation->overhead, jin.overhead));
              r.set("outer_evals",
                    static_cast<double>(ev.allocation->outer_evaluations));
              r.set("jin_rounds", static_cast<double>(jin.rounds));
              return r;
            });

        engine::TableSink table({{"Scn"},
                                 {"P* nested", "nested_procs", 5},
                                 {"P* Jin", "jin_procs", 5},
                                 {"H nested", "nested_overhead", 6},
                                 {"H Jin", "jin_overhead", 6},
                                 {"rel diff", "rel_diff", 2},
                                 {"outer evals", "outer_evals", 3},
                                 {"Jin rounds", "jin_rounds", 3}});
        engine::emit(records, {&table});
        std::printf("%s", table.to_string().c_str());
        std::printf(
            "\nBoth solvers minimise the same exact objective; overhead "
            "agreement should be ~1e-6 or better on every row.\n");
      });
}
