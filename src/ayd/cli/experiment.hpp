// Shared scaffolding for the bench/experiment binaries: a uniform set of
// scale knobs (--runs/--patterns/--seed/--threads, AYD_SCALE=paper env)
// plus a standard header so every reproduction prints its provenance.

#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "ayd/cli/args.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/sim/runner.hpp"

namespace ayd::cli {

struct ExperimentContext {
  std::size_t runs = 120;      ///< simulation replicas per point
  std::size_t patterns = 160;  ///< patterns per replica
  std::uint64_t seed = 0xA4D2016ULL;
  unsigned threads = 0;        ///< 0 = hardware concurrency
  bool use_des_engine = false; ///< reference DES backend instead of fast
  std::string csv_path;        ///< optional CSV dump of the series
  std::string jsonl_path;      ///< optional JSON-lines dump of the series

  [[nodiscard]] sim::ReplicationOptions replication() const {
    sim::ReplicationOptions opt;
    opt.replicas = runs;
    opt.patterns_per_replica = patterns;
    opt.seed = seed;
    opt.backend = use_des_engine ? sim::Backend::kDes : sim::Backend::kFast;
    return opt;
  }

  [[nodiscard]] std::unique_ptr<exec::ThreadPool> make_pool() const {
    return std::make_unique<exec::ThreadPool>(threads);
  }
};

/// Declares the standard options on a parser.
void add_experiment_options(ArgParser& parser);

/// Reads the standard options (after parse()) over the AYD_SCALE
/// environment default:
///   AYD_SCALE=paper  -> 500 runs x 500 patterns (the paper's scale)
///   AYD_SCALE=quick  -> 40 runs x 60 patterns (CI smoke scale)
[[nodiscard]] ExperimentContext read_experiment_context(
    const ArgParser& parser);

/// Prints the standard experiment header (binary name, paper citation,
/// scale, seed) to stdout.
void print_experiment_header(const std::string& title,
                             const ExperimentContext& ctx);

}  // namespace ayd::cli
