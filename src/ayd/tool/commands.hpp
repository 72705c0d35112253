// Internal command table of the `ayd` tool plus the helpers shared by the
// subcommand implementations (system construction from flags, uniform
// option groups). Not installed; include tool.hpp from outside.

#pragma once

#include <initializer_list>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "ayd/cli/args.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/sim_optimizer.hpp"
#include "ayd/model/application.hpp"
#include "ayd/model/system.hpp"
#include "ayd/service/replan.hpp"
#include "ayd/sim/runner.hpp"

namespace ayd::tool {

/// One subcommand: parses its own arguments (program name excluded) and
/// writes to `out`. Errors are reported by throwing (run_tool catches).
using CommandFn = int (*)(const std::vector<std::string>& args,
                          std::ostream& out);

struct Command {
  const char* name;
  const char* summary;
  CommandFn fn;
};

/// All registered subcommands, in help order.
[[nodiscard]] const std::vector<Command>& commands();

int cmd_platforms(const std::vector<std::string>& args, std::ostream& out);
int cmd_optimize(const std::vector<std::string>& args, std::ostream& out);
int cmd_simulate(const std::vector<std::string>& args, std::ostream& out);
int cmd_sweep(const std::vector<std::string>& args, std::ostream& out);
int cmd_plan(const std::vector<std::string>& args, std::ostream& out);
int cmd_protocols(const std::vector<std::string>& args, std::ostream& out);
int cmd_serve(const std::vector<std::string>& args, std::ostream& out);
int cmd_call(const std::vector<std::string>& args, std::ostream& out);
int cmd_cache(const std::vector<std::string>& args, std::ostream& out);
int cmd_watch(const std::vector<std::string>& args, std::ostream& out);

// -- Shared system-description options ---------------------------------

/// Declares the option group that describes the system under study:
///   --platform, --scenario, --alpha, --profile, --gamma, --downtime,
///   --lambda, --fail-stop-fraction, --failure-dist, and the custom cost
///   coefficients --ckpt-const/--ckpt-inv/--ckpt-lin,
///   --verif-const/--verif-inv.
void add_system_options(cli::ArgParser& parser);

/// A parsed --failure-dist value. The spec syntax is
///   exponential | weibull:k=K | lognormal:sigma=S | trace:PATH
/// where weibull/lognormal accept extra ",mtbf=SECONDS" or
/// ",lambda=RATE" entries that override the per-processor error rate
/// (the `--failure-dist weibull:k=0.7,mtbf=...` shorthand), and
/// trace:PATH loads inter-arrival gaps with sim::read_failure_log_csv.
struct ParsedFailureDist {
  model::FailureDistSpec spec;
  std::optional<double> lambda_override;
};
[[nodiscard]] ParsedFailureDist parse_failure_dist(const std::string& text);

/// Builds the System a parsed command line describes. Platform presets
/// resolve their scenario cost models first; any explicit cost/rate
/// option then overrides that piece. Throws util::CliError /
/// util::InvalidArgument on inconsistent combinations.
[[nodiscard]] model::System system_from_args(const cli::ArgParser& parser);

/// Reads a processor-count option (`procs`, `max-procs`). Throws
/// util::CliError naming the option unless the value is finite and >= 1
/// (> 1 for `max-procs`, the upper edge of the search over [1, max-procs]).
[[nodiscard]] double procs_from_args(const cli::ArgParser& parser,
                                     const std::string& name);

/// Prints a one-paragraph description of the system (rates, costs at the
/// reference processor count, profile) so every command's output records
/// its inputs.
void print_system(const model::System& sys, std::ostream& out);

// -- Shared simulation options ------------------------------------------

/// Declares --runs, --patterns, --seed, --des.
void add_simulation_options(cli::ArgParser& parser);

/// Reads them into ReplicationOptions. Refuses --runs below 2 (a CI
/// requires two replicas) and --patterns below 1.
[[nodiscard]] sim::ReplicationOptions replication_from_args(
    const cli::ArgParser& parser);

/// Reads the adaptive period-search knobs `ayd optimize --simulate` and
/// re-planning share: the standard simulation options, with --runs as
/// the first round, --ci-rel-tol (finite and > 0) and --max-reps (>= 2;
/// a cap below --runs lowers the first round to it).
[[nodiscard]] core::SimSearchOptions search_options_from_args(
    const cli::ArgParser& parser);

/// Refuses each of `options` that was given while `simulating` is false:
/// the option tunes a simulation that does not run, so it would be
/// silently ignored. The message names the companion ("--des requires
/// --simulate").
void refuse_unless_simulating(const cli::ArgParser& parser, bool simulating,
                              std::initializer_list<const char*> options);

/// Parses a subcommand argument vector with the standard help handling:
/// returns true if --help was printed (caller should return 0).
[[nodiscard]] bool parse_or_help(cli::ArgParser& parser,
                                 const std::vector<std::string>& args,
                                 std::ostream& out);

// -- Shared op bodies (one-shot CLI + planning service) -----------------
//
// `ayd simulate` / `ayd plan` and the service's "simulate" / "plan" ops
// must answer identically, so their option declarations, default
// resolution, and report math live here once (exactly like
// optimize_json.hpp does for "optimize"). The front-ends differ only in
// presentation: tables vs JSON.

/// Declares --period and --procs with the `ayd simulate` semantics
/// (both default to the numerically optimal pattern).
void add_pattern_options(cli::ArgParser& parser);

/// The pattern a simulate request runs after default resolution.
struct ResolvedPattern {
  double period = 0.0;
  double procs = 0.0;
  /// True when no --procs was given and the joint numerical optimum
  /// filled both fields (the CLI prints a note).
  bool procs_defaulted = false;
};

/// Resolves --period/--procs against the numerical optimum for `sys`:
/// no --procs -> joint (T, P) optimum; --procs without --period -> the
/// fixed-P period optimum; explicit values always win.
[[nodiscard]] ResolvedPattern resolve_pattern_from_args(
    const cli::ArgParser& parser, const model::System& sys);

/// Declares --work, --name, and --max-procs with the `ayd plan`
/// defaults.
void add_plan_options(cli::ArgParser& parser);

/// Refuses a system the capacity plan cannot act on. The plan is the
/// analytic optimum and makespan, which assume exponential failures in
/// an i.i.d. world, so a non-exponential --failure-dist, --shock or
/// --hetero would be silently ignored. The message points at
/// `ayd optimize --simulate`, which searches under them.
void refuse_unplannable(const model::System& sys);

/// The capacity-planning numbers `ayd plan` and the service report.
struct PlanReport {
  core::AllocationOptimum optimum;
  double expected_makespan = 0.0;
  double error_free_makespan = 0.0;
  /// Patterns the job divides into (callers round up for the checkpoint
  /// count).
  double patterns = 0.0;
};

/// Optimal plan for `app` on `sys` with the allocation search capped at
/// `max_procs`.
[[nodiscard]] PlanReport compute_plan(const model::System& sys,
                                      const model::Application& app,
                                      double max_procs);

// -- Shared re-planning options (ayd watch + the "subscribe" op) --------

/// Declares the online re-planning option group: --procs plus the
/// estimator knobs (--window, --min-events, --refit-interval,
/// --drift-ci-level, --min-mean-llr) and the re-optimization knobs
/// (the standard simulation options, --ci-rel-tol, --max-reps).
void add_replan_options(cli::ArgParser& parser);

/// Reads the group into service::ReplanOptions. An empty --procs
/// defaults to the numerically optimal allocation for `sys`, like
/// `ayd simulate`.
[[nodiscard]] service::ReplanOptions replan_options_from_args(
    const cli::ArgParser& parser, const model::System& sys);

}  // namespace ayd::tool
