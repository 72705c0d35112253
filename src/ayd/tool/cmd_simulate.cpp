// `ayd simulate` — replicated Monte-Carlo simulation of a checkpointing
// pattern, reported against the exact analytical prediction. Follows the
// paper's Section IV protocol (independent replicas of many patterns;
// overhead = faulty time / fault-free time). A single-point experiment:
// defaults come from the engine evaluator, the report goes through a
// TableSink.

#include "ayd/tool/commands.hpp"

#include <cmath>
#include <ostream>

#include "ayd/engine/engine.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::tool {

int cmd_simulate(const std::vector<std::string>& args, std::ostream& out) {
  cli::ArgParser parser(
      "ayd simulate",
      "simulate PATTERN(T, P) under fail-stop and silent errors and compare "
      "the measured overhead with the analytical prediction");
  add_system_options(parser);
  add_simulation_options(parser);
  add_pattern_options(parser);
  parser.add_option("threads", "0",
                    "worker threads (0 = hardware concurrency)");
  if (parse_or_help(parser, args, out)) return 0;

  const model::System sys = system_from_args(parser);
  // Fill unspecified pattern parameters from the engine's evaluator
  // (shared with the service's "simulate" op).
  const ResolvedPattern resolved = resolve_pattern_from_args(parser, sys);
  print_system(sys, out);

  exec::ThreadPool pool(
      static_cast<unsigned>(parser.option_uint("threads")));

  const double procs = resolved.procs;
  const double period = resolved.period;
  if (resolved.procs_defaulted) {
    out << "(no --procs given: using the numerical optimum)\n";
  }

  const core::Pattern pattern{period, procs};
  const sim::ReplicationOptions opt = replication_from_args(parser);
  const sim::ReplicationResult r =
      sim::simulate_overhead(sys, pattern, opt, &pool);

  out << "pattern: T = " << util::format_sig(period, 6)
      << " s, P = " << util::format_sig(procs, 6) << "  ("
      << opt.replicas << " replicas x " << opt.patterns_per_replica
      << " patterns, "
      << (opt.backend == sim::Backend::kDes ? "DES engine" : "fast sampler")
      << ")\n\n";

  const auto quantity = [](const char* name, const std::string& simulated,
                           const std::string& analytic) {
    engine::Record rec;
    rec.set("Quantity", name);
    rec.set("simulated", simulated);
    rec.set("analytic", analytic);
    return rec;
  };
  const std::vector<engine::Record> rows{
      quantity("execution overhead H",
               util::format_sig(r.overhead.mean, 5) + " ±" +
                   util::format_sig(r.overhead.ci.half_width(), 2),
               util::format_sig(r.analytic_overhead, 5)),
      quantity("pattern time E (s)",
               util::format_sig(r.pattern_time.mean, 6) + " ±" +
                   util::format_sig(r.pattern_time.ci.half_width(), 2),
               util::format_sig(r.analytic_pattern_time, 6)),
      quantity("fail-stop errors / pattern",
               util::format_sig(r.fail_stops_per_pattern, 4), "-"),
      quantity("silent detections / pattern",
               util::format_sig(r.silent_detections_per_pattern, 4), "-"),
      quantity("masked silent / pattern",
               util::format_sig(r.masked_silent_per_pattern, 4), "-"),
      quantity("attempts / pattern",
               util::format_sig(r.attempts_per_pattern, 4), "-")};

  engine::TableSink table({{"Quantity", "", 4, "", io::Align::kLeft},
                           {"simulated"},
                           {"analytic"}});
  engine::emit(rows, {&table});
  out << table.to_string();

  const double z = (r.overhead.mean - r.analytic_overhead) /
                   std::max(r.overhead.stderr_mean, 1e-300);
  if (sys.failure().dist().memoryless()) {
    out << "agreement: z = " << util::format_sig(z, 3)
        << " (|z| < 3 is expected when the model holds)\n";
  } else {
    out << "agreement: z = " << util::format_sig(z, 3)
        << " (analytic column assumes exponential arrivals; |z| measures "
           "the drift caused by " << sys.failure().dist().to_string()
        << " failures)\n";
  }
  return 0;
}

}  // namespace ayd::tool
