// Multi-level resilience: how much do hierarchical protocols buy?
//
// The paper's Section V names "multi-level resilience protocols" as the
// main future-work direction. This example walks one platform through the
// progression the library implements:
//
//   1. base VC pattern (Theorem 1) — one verification + one stable
//      checkpoint per pattern;
//   2. multi-verification (core/segmented.hpp on a System) — n
//      verifications catch silent errors early, but the rollback still
//      replays the whole pattern;
//   3. two-level checkpointing (core/segmented.hpp on a TwoLevelSystem) —
//      verified in-memory level-1 checkpoints make the silent rollback
//      local to one segment.
//
// For each protocol it prints the closed-form plan, the numerically exact
// optimum, and a simulated confirmation, then shows how the two-level
// advantage scales with the platform's silent-error fraction.
//
// Build & run:  ./examples/multilevel_resilience [--platform=atlas]

#include <cstdio>

#include "ayd/cli/args.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/segmented.hpp"
#include "ayd/io/table.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/util/strings.hpp"

int main(int argc, char** argv) {
  using namespace ayd;
  try {
    cli::ArgParser parser("multilevel_resilience",
                          "hierarchical resilience protocols on one platform");
    parser.add_option("platform", "atlas",
                      "Hera, Atlas, Coastal, Coastal SSD");
    parser.parse(argc, argv);
    if (parser.help_requested()) {
      std::fputs(parser.help().c_str(), stdout);
      return 0;
    }
    const model::Platform platform =
        model::platform_by_name(parser.option("platform"));
    const model::System sys =
        model::System::from_platform(platform, model::Scenario::kS3);
    const double p = platform.measured_procs;

    std::printf("platform %s: f = %.4f (fail-stop), s = %.4f (silent), "
                "P = %g, C = %gs, V = %gs\n\n",
                platform.name.c_str(), platform.fail_stop_fraction,
                1.0 - platform.fail_stop_fraction, p,
                platform.measured_checkpoint,
                platform.measured_verification);

    sim::ReplicationOptions opt;
    opt.replicas = 60;
    opt.patterns_per_replica = 100;

    io::Table table({"Protocol", "n", "T* (s)", "H exact", "H simulated"});
    table.set_align(0, io::Align::kLeft);

    const core::PeriodOptimum base = core::optimal_period(sys, p);
    const auto base_sim =
        sim::simulate_overhead(sys, {base.period, p}, opt);
    table.add_row({"1. VC (Theorem 1)", "1", util::format_sig(base.period, 4),
                   util::format_sig(base.overhead, 4),
                   util::format_sig(base_sim.overhead.mean, 4) + " ±" +
                       util::format_sig(base_sim.overhead.ci.half_width(),
                                        2)});

    const core::SegmentedOptimum mv = core::optimal_segmented_pattern(sys, p);
    const auto mv_sim = sim::simulate_segmented_overhead(
        sys, {mv.period, p, mv.segments}, opt);
    table.add_row({"2. multi-verification", std::to_string(mv.segments),
                   util::format_sig(mv.period, 4),
                   util::format_sig(mv.overhead, 4),
                   util::format_sig(mv_sim.overhead.mean, 4) + " ±" +
                       util::format_sig(mv_sim.overhead.ci.half_width(), 2)});

    const core::TwoLevelSystem two_sys =
        core::TwoLevelSystem::with_memory_level1(sys);
    const core::SegmentedOptimum two =
        core::optimal_segmented_pattern(two_sys, p);
    const auto two_sim = sim::simulate_segmented_overhead(
        two_sys, {two.period, p, two.segments}, opt);
    table.add_row({"3. two-level", std::to_string(two.segments),
                   util::format_sig(two.period, 4),
                   util::format_sig(two.overhead, 4),
                   util::format_sig(two_sim.overhead.mean, 4) + " ±" +
                       util::format_sig(two_sim.overhead.ci.half_width(),
                                        2)});
    std::printf("%s\n", table.to_string().c_str());

    // The two-level advantage as a function of the silent fraction: same
    // total error rate, varying the fail-stop/silent split.
    std::printf("two-level gain vs VC as the silent fraction varies "
                "(same total error rate):\n");
    io::Table gains({"silent fraction s", "n*", "H VC", "H two-level",
                     "gain"});
    for (const double s : {0.25, 0.5, 0.75, 0.9375, 0.99}) {
      const model::System varied(
          model::FailureModel(platform.lambda_ind, 1.0 - s),
          sys.costs(), sys.downtime(), sys.speedup_model());
      const core::TwoLevelSystem varied_two =
          core::TwoLevelSystem::with_memory_level1(varied);
      const core::PeriodOptimum vc = core::optimal_period(varied, p);
      const core::SegmentedOptimum tl =
          core::optimal_segmented_pattern(varied_two, p);
      gains.add_row({util::format_sig(s, 4), std::to_string(tl.segments),
                     util::format_sig(vc.overhead, 4),
                     util::format_sig(tl.overhead, 4),
                     util::format_sig(
                         100.0 * (vc.overhead - tl.overhead) / vc.overhead,
                         3) + "%"});
    }
    std::printf("%s", gains.to_string().c_str());
    std::printf(
        "\nThe gain grows with s: level-1 checkpoints only help rollbacks "
        "that preserve node memory, i.e. silent-error rollbacks.\n");
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
