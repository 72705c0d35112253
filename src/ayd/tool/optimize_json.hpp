// The `ayd optimize` option set, request resolution, and machine-readable
// record emitter, shared between the one-shot CLI (`ayd optimize --json`)
// and the planning service (`ayd serve`, op "optimize"). Keeping both on
// one writer-call sequence is what makes cached service replies
// value-identical to the one-shot JSON output — a contract pinned by
// tests/service_protocol_test.cpp.

#pragma once

#include <optional>

#include "ayd/cli/args.hpp"
#include "ayd/core/sim_optimizer.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/io/json.hpp"
#include "ayd/model/system.hpp"

namespace ayd::tool {

/// The semantic request behind `ayd optimize`, resolved from a parsed
/// command line or an NDJSON service request.
struct OptimizeRequest {
  /// Fixed allocation (Theorem-1 mode) when set; joint (T, P) otherwise.
  std::optional<double> procs;
  /// Upper edge of the numerical allocation search.
  double max_procs = 1e7;
  /// Also run the simulation-driven robust optimum search.
  bool simulate = false;
  /// Knobs of the simulated search (meaningful when `simulate`).
  core::SimAllocationSearchOptions sim_search{};
};

/// Declares the optimize option group: the shared system options, --procs,
/// --max-procs, the simulation knobs, --simulate, --ci-rel-tol and
/// --max-reps. The CLI-only knobs (--json, --threads) stay in cmd_optimize;
/// the service owns its own thread pool and always speaks JSON.
void add_optimize_options(cli::ArgParser& parser);

/// Reads the parsed options into an OptimizeRequest. Validates the
/// --simulate knobs (replica floor, --max-reps >= 2) exactly like the CLI;
/// a request without --simulate never rejects simulation knobs.
[[nodiscard]] OptimizeRequest optimize_request_from_args(
    const cli::ArgParser& parser);

/// Computes the requested optima and writes the machine-readable record
/// (the body of `ayd optimize --json`): a "system" echo plus
/// "first_order" / "higher_order" / "numerical" objects and, when
/// `req.simulate`, the "simulated" object with CI bounds. `pool` runs
/// the simulated search's candidate periods, P rungs and large replica
/// rounds concurrently (null runs serially; results are bit-identical
/// either way).
void write_optimize_record(io::JsonWriter& w, const model::System& sys,
                           const OptimizeRequest& req,
                           exec::ThreadPool* pool = nullptr);

}  // namespace ayd::tool
