// `ayd watch` — the streaming front-end of the online re-planning loop
// (service/replan.hpp): failure-log CSV lines in (a file or stdin),
// NDJSON schedule records out. One "plan" record on startup, one
// "replan" record every time the rolling estimate drifts past the CI
// noise floor, one "summary" record at end of stream; malformed
// telemetry lines produce "error" records and the loop keeps consuming
// (a live feed must not wedge on one bad row). The record stream is a
// pure function of the input stream and the options — byte-identical
// across runs and thread counts — which is what the replay test tier
// pins (tests/replan_replay_test.cpp).

#include "ayd/tool/commands.hpp"

#include <fstream>
#include <iostream>
#include <optional>
#include <ostream>
#include <sstream>

#include "ayd/exec/thread_pool.hpp"
#include "ayd/io/json.hpp"
#include "ayd/sim/trace.hpp"
#include "ayd/util/error.hpp"

namespace ayd::tool {

namespace {

std::string error_record(std::size_t line, const std::string& message) {
  std::ostringstream os;
  io::JsonWriter w(os);
  w.begin_object();
  w.kv("type", "error");
  w.kv("line", static_cast<std::uint64_t>(line));
  w.kv("message", message);
  w.end_object();
  return os.str();
}

}  // namespace

int cmd_watch(const std::vector<std::string>& args, std::ostream& out) {
  cli::ArgParser parser(
      "ayd watch",
      "online re-planning from live failure telemetry: streams a "
      "failure-log CSV (--trace FILE or stdin), maintains a rolling "
      "windowed MLE of the inter-arrival law, and re-publishes the "
      "simulation-true optimal checkpoint period (warm-started from the "
      "deployed one) whenever the estimate drifts past the CI noise "
      "floor. Emits one NDJSON record per decision — see docs/cli.md");
  add_system_options(parser);
  add_replan_options(parser);
  parser.add_option("trace", "",
                    "failure-log CSV to stream (default: read stdin, one "
                    "line at a time)");
  parser.add_option("threads", "0",
                    "worker threads of each re-optimization, which split "
                    "its replica rounds across the candidate periods once "
                    "a round is large enough (0 = hardware concurrency; "
                    "the record stream is identical at any value)");
  if (parse_or_help(parser, args, out)) return 0;

  const model::System sys = system_from_args(parser);
  const service::ReplanOptions opts = replan_options_from_args(parser, sys);

  std::ifstream file;
  const std::string trace_path = parser.option("trace");
  if (!trace_path.empty()) {
    file.open(trace_path, std::ios::binary);
    if (!file.good()) {
      throw util::IoError("cannot open failure log: " + trace_path);
    }
  }
  std::istream& in = trace_path.empty() ? std::cin : file;

  exec::ThreadPool pool(
      static_cast<unsigned>(parser.option_uint("threads")));
  service::Replanner replanner(sys, opts, &pool);
  out << replanner.initial_record() << '\n' << std::flush;

  sim::FailureLogReader reader;
  std::string line;
  while (std::getline(in, line)) {
    std::optional<double> gap;
    try {
      gap = reader.feed(line);
    } catch (const util::Error& e) {
      out << error_record(reader.lines(), e.what()) << '\n' << std::flush;
      continue;
    }
    if (!gap.has_value()) continue;
    if (const auto record = replanner.on_gap(*gap)) {
      out << *record << '\n' << std::flush;
    }
  }
  out << replanner.summary_record() << '\n' << std::flush;
  return 0;
}

}  // namespace ayd::tool
