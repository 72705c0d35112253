// `ayd plan` — application-level capacity planning: given the total work
// of a job, report the optimal pattern, the expected makespan, the number
// of checkpoints the run will take, and how alternative allocations
// compare. The question the paper's introduction opens with ("what is the
// optimal number of processors to execute this application?"), answered
// for one concrete job.

#include "ayd/tool/commands.hpp"

#include <cmath>
#include <ostream>

#include "ayd/core/first_order.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/overhead.hpp"
#include "ayd/engine/engine.hpp"
#include "ayd/model/application.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::tool {

int cmd_plan(const std::vector<std::string>& args, std::ostream& out) {
  cli::ArgParser parser(
      "ayd plan",
      "capacity-plan a job: optimal pattern, expected makespan and "
      "checkpoint count, plus how nearby allocations compare");
  add_system_options(parser);
  add_plan_options(parser);
  if (parse_or_help(parser, args, out)) return 0;

  const model::System sys = system_from_args(parser);
  refuse_unplannable(sys);
  const model::Application app{parser.option("name"),
                               parser.option_double("work"), 0.0};
  const double max_procs = procs_from_args(parser, "max-procs");
  print_system(sys, out);
  out << "job: " << app.name << ", W_total = "
      << util::format_sig(app.total_work, 4) << " s sequential ("
      << util::format_duration(app.total_work) << ")\n\n";

  // The report math is shared with the service's "plan" op.
  const PlanReport report = compute_plan(sys, app, max_procs);
  const core::AllocationOptimum& opt = report.optimum;
  const double makespan = report.expected_makespan;
  const double error_free = report.error_free_makespan;
  const double patterns = report.patterns;

  out << "optimal plan:\n"
      << "  processors      P* = " << util::format_sig(opt.procs, 6)
      << (opt.at_boundary ? "  (at --max-procs boundary)" : "") << "\n"
      << "  period          T* = " << util::format_sig(opt.period, 6)
      << " s (" << util::format_duration(opt.period) << " between "
      << "checkpoints)\n"
      << "  overhead        H  = " << util::format_sig(opt.overhead, 6)
      << "\n"
      << "  exp. makespan      " << util::format_duration(makespan)
      << "  (error-free at this P: " << util::format_duration(error_free)
      << ", +"
      << util::format_sig(100.0 * (makespan / error_free - 1.0), 3)
      << "%)\n"
      << "  checkpoints        " << util::format_sig(std::ceil(patterns), 4)
      << " (one every " << util::format_duration(opt.period) << ")\n\n";

  // Alternatives: how sensitive is the makespan to the allocation?
  engine::GridSpec alternatives;
  alternatives.axis(
      engine::Axis::list("factor", {0.25, 0.5, 1.0, 2.0, 4.0}));
  engine::EvalSpec spec;
  spec.numerical = true;
  const auto records =
      engine::run_grid(alternatives, nullptr, [&](const engine::Point& pt) {
        const double factor = pt.var("factor");
        const double procs = std::max(1.0, std::round(opt.procs * factor));
        const engine::PointEval ev = engine::evaluate_point(sys, spec, procs);
        const double m = core::expected_makespan(
            sys, {ev.period->period, procs}, app);
        engine::Record r;
        r.set("allocation", factor == 1.0
                                ? std::string("P* (optimal)")
                                : util::format_sig(factor, 3) + " x P*");
        r.set("P", procs);
        r.set("T* (s)", ev.period->period);
        r.set("H", ev.period->overhead);
        r.set("exp. makespan", util::format_duration(m));
        std::string gap = m >= makespan ? "+" : "";
        gap.append(util::format_sig(100.0 * (m / makespan - 1.0), 3))
            .append("%");
        r.set("vs optimal", std::move(gap));
        return r;
      });
  engine::TableSink table({{"allocation", "", 4, "", io::Align::kLeft},
                           {"P", "", 6},
                           {"T* (s)", "", 4},
                           {"H", "", 4},
                           {"exp. makespan"},
                           {"vs optimal"}});
  engine::emit(records, {&table});
  out << table.to_string();
  out << "\nEnrolling more processors than P* makes the job *slower*: "
         "failures and resilience costs outgrow the speedup (the paper's "
         "headline result).\n";
  return 0;
}

}  // namespace ayd::tool
