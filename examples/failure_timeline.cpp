// Failure timeline: watch the VC protocol live.
//
// Runs the event-queue simulator on an error-prone configuration with a
// trace recorder attached and renders the resulting execution as an
// ASCII timeline — computation, verifications, checkpoints, wasted work,
// downtime and recoveries — followed by a time-accounting breakdown.
// This is the discrete-event engine the validation experiments rely on,
// made visible. With --two-level the same workload runs under the
// two-level protocol so the shorter silent rollbacks are visible
// side-by-side.
//
// Build & run:  ./examples/failure_timeline [--seed=7] [--two-level]

#include <cstdio>

#include "ayd/cli/args.hpp"
#include "ayd/core/expected_time.hpp"
#include "ayd/core/first_order.hpp"
#include "ayd/core/two_level.hpp"
#include "ayd/io/table.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/sim/protocol.hpp"
#include "ayd/sim/trace.hpp"
#include "ayd/sim/segmented.hpp"
#include "ayd/util/strings.hpp"

int main(int argc, char** argv) {
  using namespace ayd;
  try {
    cli::ArgParser parser("failure_timeline",
                          "trace a VC-protocol execution event by event");
    parser.add_option("seed", "7", "RNG seed for the error processes");
    parser.add_option("patterns", "12", "number of patterns to trace");
    parser.add_flag("two-level",
                    "trace the two-level protocol (in-memory level-1 "
                    "checkpoints) instead of the base VC protocol");
    parser.parse(argc, argv);
    if (parser.help_requested()) {
      std::fputs(parser.help().c_str(), stdout);
      return 0;
    }
    const auto seed = parser.option_uint("seed");
    const auto n_patterns = parser.option_uint("patterns");

    // Hera, scenario 3, with the error rate cranked up ~50x so that a
    // dozen patterns show a few of each event type (a realistic rate
    // would show a featureless wall of '=').
    const model::System sys =
        model::System::from_platform(model::hera(), model::Scenario::kS3)
            .with_lambda(1e-6);
    const double procs = 512.0;
    const bool two_level = parser.flag("two-level");
    const core::Pattern pattern{
        core::optimal_period_first_order(sys, procs), procs};

    rng::RngStream rng(seed);
    sim::Trace trace;
    sim::PatternStats totals;
    double clock = 0.0;
    double expected_one = 0.0;
    if (two_level) {
      const core::TwoLevelSystem two_sys =
          core::TwoLevelSystem::with_memory_level1(sys);
      const core::TwoLevelOptimum plan =
          core::optimal_two_level_pattern(two_sys, procs);
      const core::TwoLevelPattern two_pattern{plan.period, procs,
                                              plan.segments};
      std::printf("tracing %llu two-level patterns "
                  "TWOLEVELPATTERN(T=%s, P=%.0f, n=%d) on a degraded Hera "
                  "(lambda_ind = 1e-6)\n\n",
                  static_cast<unsigned long long>(n_patterns),
                  util::format_duration(two_pattern.period).c_str(), procs,
                  two_pattern.segments);
      sim::SegmentedDesSimulator simulator(two_sys, two_pattern);
      for (std::uint64_t i = 0; i < n_patterns; ++i) {
        const sim::PatternStats s =
            simulator.simulate_pattern(rng, &trace, clock);
        clock += s.wall_time;
        totals.merge(s);
      }
      expected_one = core::expected_two_level_time(two_sys, two_pattern);
    } else {
      std::printf("tracing %llu patterns of PATTERN(T=%s, P=%.0f) on a "
                  "degraded Hera (lambda_ind = 1e-6)\n\n",
                  static_cast<unsigned long long>(n_patterns),
                  util::format_duration(pattern.period).c_str(), procs);
      sim::DesProtocolSimulator simulator(sys, pattern);
      for (std::uint64_t i = 0; i < n_patterns; ++i) {
        const sim::PatternStats s =
            simulator.simulate_pattern(rng, &trace, clock);
        clock += s.wall_time;
        totals.merge(s);
      }
      expected_one = core::expected_pattern_time(sys, pattern);
    }

    std::printf("%s\n", trace.render_timeline(100).c_str());

    io::Table table({"where the time went", "seconds", "share"});
    table.set_align(0, io::Align::kLeft);
    const double total = trace.total_time();
    for (int k = 0; k <= static_cast<int>(sim::SegmentKind::kDowntime);
         ++k) {
      const auto kind = static_cast<sim::SegmentKind>(k);
      const double t = trace.time_in(kind);
      table.add_row({sim::segment_kind_name(kind),
                     util::format_sig(t, 4),
                     util::format_sig(100.0 * t / total, 3) + "%"});
    }
    std::printf("%s\n", table.to_string().c_str());

    std::printf("events: %llu fail-stop (%llu during recovery), %llu "
                "silent detected, %llu silent masked by fail-stop, %llu "
                "attempts for %llu patterns\n",
                static_cast<unsigned long long>(totals.fail_stop_errors),
                static_cast<unsigned long long>(totals.recovery_fail_stops),
                static_cast<unsigned long long>(totals.silent_detections),
                static_cast<unsigned long long>(totals.masked_silent),
                static_cast<unsigned long long>(totals.attempts),
                static_cast<unsigned long long>(n_patterns));
    const double expected = expected_one * static_cast<double>(n_patterns);
    std::printf("wall time %s vs exact expectation %s (single run — "
                "replicate to converge)\n",
                util::format_duration(clock).c_str(),
                util::format_duration(expected).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
