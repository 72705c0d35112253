// Thin shim for the experiment binaries. Formatting of simulation
// summaries lives in the engine's sink layer (ayd/engine/sink.hpp); this
// header re-exports its cells under the historical bench:: names and keeps
// the standard main() wrapper that turns CLI errors into readable messages.

#pragma once

#include <chrono>
#include <cstdio>
#include <exception>
#include <functional>
#include <string>

#include "ayd/cli/args.hpp"
#include "ayd/cli/experiment.hpp"
#include "ayd/engine/sink.hpp"

namespace ayd::bench {

/// "0.1123 ±0.0004" — the simulated-mean cell used across all tables.
using engine::mean_ci_cell;

/// "-" placeholder used when a column does not apply (e.g. first-order
/// solution in scenario 6).
inline const char* kNoValue = engine::kNoValue;

/// Elapsed wall-clock seconds since `start` — the timing helper the
/// benches that report wall time share.
inline double seconds_since(
    const std::chrono::steady_clock::time_point& start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Runs an experiment body with uniform option parsing / error handling.
/// `setup` may add extra options before parsing. Returns process exit code.
inline int run_experiment_main(
    int argc, char** argv, const std::string& title,
    const std::string& description,
    const std::function<void(cli::ArgParser&)>& setup,
    const std::function<void(const cli::ArgParser&,
                             const cli::ExperimentContext&)>& body) {
  try {
    cli::ArgParser parser(argv[0] != nullptr ? argv[0] : "bench",
                          description);
    cli::add_experiment_options(parser);
    if (setup) setup(parser);
    parser.parse(argc, argv);
    if (parser.help_requested()) {
      std::fputs(parser.help().c_str(), stdout);
      return 0;
    }
    const cli::ExperimentContext ctx = cli::read_experiment_context(parser);
    cli::print_experiment_header(title, ctx);
    body(parser, ctx);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}

}  // namespace ayd::bench
