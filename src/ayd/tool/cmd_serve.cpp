// `ayd serve` — the long-lived planning service: NDJSON requests on
// stdin, NDJSON replies on stdout, answers memoised in a sharded
// single-flight LRU cache keyed by canonical scenario identity, with an
// optional persistent answer store (--cache-dir) that survives
// restarts. The CLI entry is a thin shim; the machinery lives in
// src/ayd/service/ and the wire protocol is specified in
// docs/service.md.

#include "ayd/tool/commands.hpp"

#include <csignal>
#include <iostream>
#include <memory>
#include <ostream>

#include "ayd/service/server.hpp"
#include "ayd/service/shm_transport.hpp"
#include "ayd/util/error.hpp"

namespace ayd::tool {

int cmd_serve(const std::vector<std::string>& args, std::ostream& out) {
  cli::ArgParser parser(
      "ayd serve",
      "long-lived planning service: one JSON request per stdin line "
      "({\"op\":\"optimize\"|\"simulate\"|\"plan\"|\"stats\", \"id\":..., "
      "params...}), one JSON reply per stdout line (same id; replies may "
      "complete out of order), every answer memoised in a sharded LRU "
      "cache — see docs/service.md for the wire protocol");
  parser.add_option("threads", "0",
                    "request worker threads (0 = hardware concurrency)");
  parser.add_option("cache-entries", "4096",
                    "memo-cache capacity in cached replies (at least 1)");
  parser.add_option("cache-shards", "16",
                    "lock shards of the memo cache (rounded up to a power "
                    "of two)");
  parser.add_option("cache-dir", "",
                    "directory of the persistent answer store (tier 2): "
                    "answers survive restarts and pre-warm the memo cache; "
                    "empty disables the disk tier");
  parser.add_option("shm", "",
                    "also serve a named shared-memory segment (clients: "
                    "`ayd call --shm NAME`); the pipe and the segment share "
                    "one cache and worker pool — see docs/service.md");
  parser.add_option("shm-slots", "64",
                    "request-ring slots of the --shm segment (rounded up "
                    "to a power of two); requires --shm");
  if (parse_or_help(parser, args, out)) return 0;

  service::ServiceOptions options;
  options.threads = static_cast<unsigned>(parser.option_uint("threads"));
  options.cache_entries =
      static_cast<std::size_t>(parser.option_uint("cache-entries"));
  if (options.cache_entries == 0) {
    throw util::CliError("--cache-entries must be >= 1");
  }
  const std::string shm_name = parser.option("shm");
  if (shm_name.empty() && parser.given("shm-slots")) {
    throw util::CliError("--shm-slots requires --shm");
  }
  options.cache_shards =
      static_cast<std::size_t>(parser.option_uint("cache-shards"));
  options.cache_dir = parser.option("cache-dir");

#ifdef SIGPIPE
  // A client that closes the pipe mid-session must surface as a stream
  // write failure (serve() returns false), not kill the process with
  // the default SIGPIPE disposition before it can clean up.
  std::signal(SIGPIPE, SIG_IGN);
#endif

  service::PlanningService service(options);

  // The shm transport serves ALONGSIDE the stdin/stdout pipe (same
  // PlanningService, so both transports hit one memo cache); stdin EOF
  // remains the shutdown signal, and the ShmServer destructor drains and
  // unlinks the segment on the way out.
  std::unique_ptr<service::ShmServer> shm;
  if (!shm_name.empty()) {
    service::ShmOptions shm_options;
    shm_options.request_slots =
        static_cast<std::size_t>(parser.option_uint("shm-slots"));
    shm = std::make_unique<service::ShmServer>(shm_name, service,
                                               shm_options);
    // stdout is the pipe's reply channel; operator notices go to stderr.
    std::cerr << "ayd serve: shared-memory transport at "
              << service::ShmServer::segment_path(shm_name)
              << " (EOF on stdin shuts down both transports)\n";
  }

  if (!service.serve(std::cin, out)) {
    // Reporting on `out` is pointless — it is the stream that died.
    throw util::IoError(
        "ayd serve: reply write failed (client closed the pipe?); "
        "shutting down");
  }
  return 0;
}

}  // namespace ayd::tool
