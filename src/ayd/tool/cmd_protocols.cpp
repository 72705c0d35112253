// `ayd protocols` — the three resilience protocols compared on one
// system: base VC (Theorem 1), multi-verification (n verifications per
// checkpoint) and two-level checkpointing (verified in-memory level-1
// checkpoints between stable level-2 checkpoints). Each row shows the
// protocol's optimal parameters and its simulated overhead.

#include "ayd/tool/commands.hpp"

#include <memory>
#include <ostream>

#include "ayd/core/optimizer.hpp"
#include "ayd/core/segmented.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/io/table.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::tool {

int cmd_protocols(const std::vector<std::string>& args, std::ostream& out) {
  cli::ArgParser parser(
      "ayd protocols",
      "compare the VC, multi-verification and two-level protocols on one "
      "system (the multi-level extensions of the paper's Section V)");
  add_system_options(parser);
  add_simulation_options(parser);
  parser.add_option("procs", "",
                    "processor allocation (default: the base protocol's "
                    "numerically optimal allocation)");
  parser.add_option("threads", "0",
                    "worker threads (0 = hardware concurrency)");
  if (parse_or_help(parser, args, out)) return 0;

  const model::System sys = system_from_args(parser);
  const double procs = parser.option("procs").empty()
                           ? core::optimal_allocation(sys).procs
                           : procs_from_args(parser, "procs");
  const sim::ReplicationOptions opt = replication_from_args(parser);
  print_system(sys, out);
  out << "allocation: P = " << util::format_sig(procs, 6) << "\n\n";

  exec::ThreadPool pool(static_cast<unsigned>(parser.option_uint("threads")));

  io::Table table({"Protocol", "n", "T* (s)", "H predicted", "H simulated"});
  table.set_align(0, io::Align::kLeft);

  const core::PeriodOptimum base = core::optimal_period(sys, procs);
  const sim::ReplicationResult base_sim =
      sim::simulate_overhead(sys, {base.period, procs}, opt, &pool);
  table.add_row({"VC (verify + checkpoint)", "1",
                 util::format_sig(base.period, 4),
                 util::format_sig(base.overhead, 4),
                 util::format_sig(base_sim.overhead.mean, 4) + " ±" +
                     util::format_sig(base_sim.overhead.ci.half_width(), 2)});

  const core::SegmentedOptimum mv =
      core::optimal_segmented_pattern(sys, procs);
  const sim::ReplicationResult mv_sim = sim::simulate_segmented_overhead(
      sys, {mv.period, procs, mv.segments}, opt, &pool);
  table.add_row({"multi-verification", std::to_string(mv.segments),
                 util::format_sig(mv.period, 4),
                 util::format_sig(mv.overhead, 4),
                 util::format_sig(mv_sim.overhead.mean, 4) + " ±" +
                     util::format_sig(mv_sim.overhead.ci.half_width(), 2)});

  const core::TwoLevelSystem two_sys =
      core::TwoLevelSystem::with_memory_level1(sys);
  const core::SegmentedOptimum two =
      core::optimal_segmented_pattern(two_sys, procs);
  const sim::ReplicationResult two_sim = sim::simulate_segmented_overhead(
      two_sys, {two.period, procs, two.segments}, opt, &pool);
  table.add_row({"two-level checkpointing", std::to_string(two.segments),
                 util::format_sig(two.period, 4),
                 util::format_sig(two.overhead, 4),
                 util::format_sig(two_sim.overhead.mean, 4) + " ±" +
                     util::format_sig(two_sim.overhead.ci.half_width(), 2)});

  out << table.to_string();
  out << "\nn = verifications per stable checkpoint. The two-level row "
         "assumes the level-1 checkpoint costs the same as a verification "
         "(both are in-memory copies of the footprint, the paper's own "
         "convention for V_P).\n";
  return 0;
}

}  // namespace ayd::tool
