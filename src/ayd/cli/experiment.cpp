#include "ayd/cli/experiment.hpp"

#include <cstdio>

#include "ayd/util/strings.hpp"
#include "ayd/util/version.hpp"

namespace ayd::cli {

void add_experiment_options(ArgParser& parser) {
  parser.add_option("runs", "", "simulation replicas per point");
  parser.add_option("patterns", "", "patterns per replica");
  parser.add_option("seed", "", "base RNG seed");
  parser.add_option("threads", "0",
                    "worker threads (0 = hardware concurrency)");
  parser.add_option("csv", "", "also write the series to this CSV file");
  parser.add_option("jsonl", "",
                    "also write the series to this JSON-lines file");
  parser.add_flag("des", "use the event-queue reference simulator backend");
}

ExperimentContext read_experiment_context(const ArgParser& parser) {
  ExperimentContext ctx;

  const std::string scale = util::to_lower(env_or("AYD_SCALE", ""));
  if (scale == "paper") {
    ctx.runs = 500;
    ctx.patterns = 500;
  } else if (scale == "quick") {
    ctx.runs = 40;
    ctx.patterns = 60;
  }

  if (!parser.option("runs").empty()) {
    ctx.runs = static_cast<std::size_t>(parser.option_uint("runs"));
  }
  if (!parser.option("patterns").empty()) {
    ctx.patterns = static_cast<std::size_t>(parser.option_uint("patterns"));
  }
  if (!parser.option("seed").empty()) {
    ctx.seed = parser.option_uint("seed");
  }
  ctx.threads = static_cast<unsigned>(parser.option_uint("threads"));
  ctx.use_des_engine = parser.flag("des");
  ctx.csv_path = parser.option("csv");
  ctx.jsonl_path = parser.option("jsonl");
  return ctx;
}

void print_experiment_header(const std::string& title,
                             const ExperimentContext& ctx) {
  std::printf("# %s\n", title.c_str());
  std::printf("# reproduces: %s\n", util::paper_citation());
  std::printf("# library: amdahl-young-daly v%s\n", util::version_string());
  std::printf(
      "# scale: %zu runs x %zu patterns per point, seed %llu, backend %s\n",
      ctx.runs, ctx.patterns,
      static_cast<unsigned long long>(ctx.seed),
      ctx.use_des_engine ? "DES engine" : "fast sampler");
  std::printf("#\n");
}

}  // namespace ayd::cli
