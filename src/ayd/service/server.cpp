#include "ayd/service/server.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <istream>
#include <mutex>
#include <ostream>
#include <sstream>
#include <utility>
#include <vector>

#include "ayd/io/json.hpp"
#include "ayd/model/application.hpp"
#include "ayd/service/replan.hpp"
#include "ayd/service/shm_transport.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/sim/trace.hpp"
#include "ayd/tool/commands.hpp"
#include "ayd/tool/optimize_json.hpp"
#include "ayd/util/strings.hpp"
#include "ayd/util/version.hpp"

namespace ayd::service {

namespace {

/// Parses request parameters with the op's ArgParser (the same spec
/// parsers the CLI uses, so spellings and validation cannot drift).
void parse_params(cli::ArgParser& parser, const Params& params) {
  parser.parse_args(params_to_argv(params));
  if (parser.help_requested()) {
    throw ProtocolError("bad_request",
                        "\"help\" is not a request parameter (see "
                        "docs/service.md for the protocol)");
  }
}

const char* backend_name(sim::Backend backend) {
  return backend == sim::Backend::kDes ? "des" : "fast";
}

void write_summary(io::JsonWriter& w, std::string_view key,
                   const stats::Summary& s) {
  w.key(key);
  w.begin_object();
  w.kv("mean", s.mean);
  w.kv("ci_lo", s.ci.lo);
  w.kv("ci_hi", s.ci.hi);
  w.kv("stddev", s.stddev);
  w.kv("count", static_cast<std::uint64_t>(s.count));
  w.end_object();
}

/// A resolved planning request: its canonical key, the evaluation a
/// cache miss runs, and whether the front memo may remember it.
struct Resolved {
  CanonicalKey key;
  MemoCache::Compute compute;
  /// False when resolution read a file: `trace:PATH` re-reads the CSV on
  /// every request and its gaps are part of the key, so the argv alone
  /// does not determine the key. (Shock and --hetero laws are analytic.)
  bool pure = true;
};

bool resolution_is_pure(const model::System& sys) {
  return sys.failure().dist().kind() != model::FailureDistKind::kTraceReplay;
}

Resolved resolve_optimize(const Request& req) {
  cli::ArgParser parser("ayd serve: optimize", "service op");
  tool::add_optimize_options(parser);
  parse_params(parser, req.params);
  const model::System sys = tool::system_from_args(parser);
  const tool::OptimizeRequest opt = tool::optimize_request_from_args(parser);

  // The field sequence lives in canonical.cpp, shared with
  // `ayd optimize --cache-dir` so both front-ends address the same
  // persistent-store records.
  return {optimize_canonical_key(sys, opt),
          [sys, opt] {
            std::ostringstream os;
            io::JsonWriter w(os, /*pretty=*/false);
            tool::write_optimize_record(w, sys, opt, /*pool=*/nullptr);
            return os.str();
          },
          resolution_is_pure(sys)};
}

Resolved resolve_simulate(const Request& req) {
  cli::ArgParser parser("ayd serve: simulate", "service op");
  tool::add_system_options(parser);
  tool::add_simulation_options(parser);
  tool::add_pattern_options(parser);
  parse_params(parser, req.params);
  const model::System sys = tool::system_from_args(parser);

  // Resolve pattern defaults exactly like `ayd simulate` (the shared
  // helper), so the canonical key captures the pattern actually run.
  const tool::ResolvedPattern resolved =
      tool::resolve_pattern_from_args(parser, sys);
  const double procs = resolved.procs;
  const double period = resolved.period;
  const sim::ReplicationOptions opt = tool::replication_from_args(parser);

  return {CanonicalKeyBuilder("simulate")
              .system(sys)
              .field("period", period)
              .field("procs", procs)
              .field("runs", static_cast<std::uint64_t>(opt.replicas))
              .field("patterns",
                     static_cast<std::uint64_t>(opt.patterns_per_replica))
              .field("seed", static_cast<std::uint64_t>(opt.seed))
              .field("backend", backend_name(opt.backend))
              .finish(),
          [sys, period, procs, opt] {
            const sim::ReplicationResult r =
                sim::simulate_overhead(sys, {period, procs}, opt);
            std::ostringstream os;
            io::JsonWriter w(os, /*pretty=*/false);
            w.begin_object();
            w.kv("period", period);
            w.kv("procs", procs);
            w.kv("replicas", static_cast<std::uint64_t>(opt.replicas));
            w.kv("patterns_per_replica",
                 static_cast<std::uint64_t>(opt.patterns_per_replica));
            w.kv("seed", static_cast<std::uint64_t>(opt.seed));
            w.kv("backend", backend_name(opt.backend));
            write_summary(w, "overhead", r.overhead);
            write_summary(w, "pattern_time", r.pattern_time);
            w.kv("analytic_overhead", r.analytic_overhead);
            w.kv("analytic_pattern_time", r.analytic_pattern_time);
            w.kv("fail_stops_per_pattern", r.fail_stops_per_pattern);
            w.kv("silent_detections_per_pattern",
                 r.silent_detections_per_pattern);
            w.kv("masked_silent_per_pattern", r.masked_silent_per_pattern);
            w.kv("attempts_per_pattern", r.attempts_per_pattern);
            w.kv("total_patterns",
                 static_cast<std::uint64_t>(r.total_patterns));
            w.end_object();
            return os.str();
          },
          resolution_is_pure(sys)};
}

Resolved resolve_plan(const Request& req) {
  cli::ArgParser parser("ayd serve: plan", "service op");
  tool::add_system_options(parser);
  tool::add_plan_options(parser);
  parse_params(parser, req.params);
  const model::System sys = tool::system_from_args(parser);
  tool::refuse_unplannable(sys);
  const model::Application app{parser.option("name"),
                               parser.option_double("work"), 0.0};
  const double max_procs = tool::procs_from_args(parser, "max-procs");

  return {CanonicalKeyBuilder("plan")
              .system(sys)
              .field("work", app.total_work)
              .field("max_procs", max_procs)
              .field("name", app.name)
              .finish(),
          [sys, app, max_procs] {
            // The report math is tool::compute_plan — the same body
            // `ayd plan` prints as tables.
            const tool::PlanReport report =
                tool::compute_plan(sys, app, max_procs);
            std::ostringstream os;
            io::JsonWriter w(os, /*pretty=*/false);
            w.begin_object();
            w.kv("job", app.name);
            w.kv("work", app.total_work);
            w.kv("procs", report.optimum.procs);
            w.kv("period", report.optimum.period);
            w.kv("overhead", report.optimum.overhead);
            w.kv("at_boundary", report.optimum.at_boundary);
            w.kv("expected_makespan", report.expected_makespan);
            w.kv("error_free_makespan", report.error_free_makespan);
            w.kv("checkpoints", std::ceil(report.patterns));
            w.end_object();
            return os.str();
          },
          resolution_is_pure(sys)};
}

using Resolver = Resolved (*)(const Request&);

/// The resolver of a memoised op (optimize, simulate, plan), or null.
Resolver resolver(const std::string& op) {
  if (op == "optimize") return resolve_optimize;
  if (op == "simulate") return resolve_simulate;
  if (op == "plan") return resolve_plan;
  return nullptr;
}

/// The error envelope for the exception being handled; call it only from
/// a catch block. Prefers the id a ProtocolError carries (parse_request
/// extracts it before any validation can fail) over `id`.
std::string error_reply(const io::JsonValue& id) {
  try {
    throw;
  } catch (const ProtocolError& e) {
    return make_error_reply(e.id().is_null() ? id : e.id(), e.code(),
                            e.what());
  } catch (const util::Error& e) {
    // Spec-parser rejections (unknown option, malformed value, infeasible
    // combination) are the caller's fault, not the service's.
    return make_error_reply(id, "bad_request", e.what());
  } catch (const std::exception& e) {
    return make_error_reply(id, "internal", e.what());
  }
}

}  // namespace

PlanningService::PlanningService(const ServiceOptions& options)
    : options_(options),
      store_(options.cache_dir.empty()
                 ? nullptr
                 : std::make_unique<AnswerStore>(
                       AnswerStore::path_in_dir(options.cache_dir))),
      cache_(options.cache_entries, options.cache_shards, store_.get()),
      pool_(options.threads) {}

struct PlanningService::Staged {
  Request req;
  /// argv_key(op, params), for the ops the front memo serves.
  std::string front;
  /// The reply of a warm hit.
  std::optional<std::string> warm;
  /// What stopped the stage: the reply is its error envelope.
  std::exception_ptr error;
};

PlanningService::Staged PlanningService::stage(const std::string& line) {
  Staged staged;  // id null until the request parses far enough to know
  try {
    staged.req = parse_request(line);
    if (resolver(staged.req.op) != nullptr) {
      staged.front = argv_key(staged.req.op, staged.req.params);
      staged.warm = warm_reply(staged.req, staged.front);
    }
  } catch (const std::exception&) {
    staged.error = std::current_exception();
  }
  return staged;
}

std::string PlanningService::answer(Staged&& staged) {
  if (staged.warm) return std::move(*staged.warm);
  try {
    if (staged.error) std::rethrow_exception(staged.error);
    return dispatch(staged.req, std::move(staged.front));
  } catch (const std::exception&) {
    return error_reply(staged.req.id);
  }
}

std::string PlanningService::handle_line(const std::string& line) {
  return answer(stage(line));
}

template <typename Task>
void PlanningService::hop(Task task) {
  {
    std::unique_lock lock(window_mutex_);
    window_cv_.wait(lock, [this] {
      return draining_ == 0 &&
             in_flight_ < std::max<std::size_t>(64, 4 * pool_.size());
    });
    ++in_flight_;
  }
  const auto leave = [this] {
    const std::lock_guard lock(window_mutex_);
    --in_flight_;
    window_cv_.notify_all();
  };
  (void)pool_.submit([task = std::move(task), leave]() mutable {
    try {
      task();
    } catch (...) {
      leave();  // or drain() would wait for it forever
      throw;
    }
    leave();
  });
}

void PlanningService::submit(const std::string& line, ReplySink sink) {
  Staged staged = stage(line);
  // A warm hit costs less than the hop to a worker: answer it here,
  // unless the sink cannot take it without blocking.
  if (staged.warm && sink(*staged.warm, /*may_block=*/false)) return;
  hop([this, staged = std::move(staged), sink = std::move(sink)]() mutable {
    sink(answer(std::move(staged)), /*may_block=*/true);
  });
}

void PlanningService::drain() {
  std::unique_lock lock(window_mutex_);
  ++draining_;
  window_cv_.wait(lock, [this] { return in_flight_ == 0; });
  --draining_;
  window_cv_.notify_all();
}

bool PlanningService::serve(std::istream& in, std::ostream& out) {
  // The window in submit() bounds the requests in flight — natural pipe
  // backpressure — so a long-lived session streaming millions of lines
  // holds no per-request state beyond it.
  //
  // std::getline handles the final unterminated line for free: it
  // extracts up to EOF and only sets failbit when *nothing* was read,
  // so a client that omits the last '\n' still gets its reply (pinned
  // by service_protocol_test).
  struct {
    std::ostream& out;
    std::mutex mutex;  // one reply line at a time
    // Set when a reply write fails: the reader must stop accepting input
    // — with the client's read side gone, draining stdin and discarding
    // replies forever is indistinguishable from a hang.
    std::atomic<bool> failed;
  } output{out, {}, {false}};
  const ReplySink write = [&output](const std::string& reply, bool) {
    const std::lock_guard lock(output.mutex);
    if (output.failed) return true;
    output.out << reply << '\n' << std::flush;
    // A closed pipe surfaces as a stream failure here (cmd_serve ignores
    // SIGPIPE so the write errors instead of killing the process).
    if (output.out.fail()) output.failed = true;
    return true;
  };

  for (std::string line; !output.failed && std::getline(in, line);) {
    if (!util::trim(line).empty()) submit(line, write);
  }
  drain();
  return !output.failed;
}

std::string PlanningService::dispatch(const Request& req, std::string front) {
  if (req.op == "stats") return handle_stats(req);
  if (req.op == "subscribe") return handle_subscribe(req);
  const Resolver resolve = resolver(req.op);
  if (resolve == nullptr) {
    throw ProtocolError(
        "unknown_op",
        "unknown op \"" + req.op +
            "\" (expected optimize, simulate, plan, stats, subscribe)");
  }
  Resolved resolved = resolve(req);
  const MemoCache::Lookup lookup =
      cache_.get_or_compute(resolved.key, resolved.compute);
  if (resolved.pure) remember(std::move(front), std::move(resolved.key));
  return make_ok_reply(req.id, req.op, *lookup.value);
}

std::optional<std::string> PlanningService::warm_reply(
    const Request& req, const std::string& front) {
  std::shared_ptr<const CanonicalKey> key;
  {
    const std::lock_guard lock(front_mutex_);
    const auto it = front_.find(front);
    if (it == front_.end()) return std::nullopt;
    key = it->second;
  }
  // A stale entry (canonical entry evicted or in flight) probes null and
  // the caller takes the slow path, which re-resolves and re-remembers.
  const std::shared_ptr<const std::string> value = cache_.find(*key);
  if (value == nullptr) return std::nullopt;
  return make_ok_reply(req.id, req.op, *value);
}

void PlanningService::remember(std::string front, CanonicalKey key) {
  auto shared = std::make_shared<const CanonicalKey>(std::move(key));
  const std::lock_guard lock(front_mutex_);
  // Bounded by --cache-entries: a full memo starts over, and the hot
  // spellings are re-learned by one slow-path request each.
  if (front_.size() >= options_.cache_entries && !front_.contains(front)) {
    front_.clear();
  }
  front_.insert_or_assign(std::move(front), std::move(shared));
}

std::string PlanningService::handle_stats(const Request& req) {
  if (!req.params.empty()) {
    throw ProtocolError("bad_request", "op \"stats\" takes no parameters");
  }
  const CacheStats stats = cache_.stats();
  std::ostringstream os;
  io::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.kv("hits", stats.hits);
  w.kv("misses", stats.misses);
  w.kv("disk_hits", stats.disk_hits);
  w.kv("coalesced", stats.coalesced);
  w.kv("evictions", stats.evictions);
  w.kv("entries", static_cast<std::uint64_t>(stats.entries));
  w.kv("cache_entries", static_cast<std::uint64_t>(cache_.max_entries()));
  w.kv("cache_shards", static_cast<std::uint64_t>(cache_.shard_count()));
  w.kv("threads", static_cast<std::uint64_t>(pool_.size()));
  if (store_ != nullptr) {
    w.kv("cache_dir", options_.cache_dir);
    w.kv("store_entries", static_cast<std::uint64_t>(store_->entries()));
    w.kv("store_bytes", store_->file_bytes());
  }
  {
    const std::lock_guard lock(transport_mutex_);
    if (transport_ != nullptr) {
      const ShmServerStats t = transport_->stats();
      w.key("transport");
      w.begin_object();
      w.kv("requests", t.requests);
      w.kv("inline_hits", t.inline_hits);
      w.kv("reclaimed_clients", t.reclaimed_clients);
      w.kv("reclaimed_requests", t.reclaimed_requests);
      w.kv("dropped_replies", t.dropped_replies);
      w.kv("recovered_stale", t.recovered_stale);
      w.end_object();
    }
  }
  w.kv("version", util::version_string());
  w.end_object();
  return make_ok_reply(req.id, req.op, os.str());
}

void PlanningService::attach_transport(const ShmServer* server) {
  const std::lock_guard lock(transport_mutex_);
  transport_ = server;
}

void PlanningService::detach_transport(const ShmServer* server) {
  const std::lock_guard lock(transport_mutex_);
  if (transport_ == server) transport_ = nullptr;
}

std::string PlanningService::handle_subscribe(const Request& req) {
  // The telemetry payload must come off the parameter list before the
  // argv bridge runs: "events" is a JSON array and "telemetry" a CSV
  // blob, and params_to_argv deliberately rejects non-scalars.
  const io::JsonValue* events = nullptr;
  const io::JsonValue* telemetry = nullptr;
  Params scalar_params;
  for (const auto& [name, value] : req.params) {
    if (name == "events") {
      events = &value;
    } else if (name == "telemetry") {
      telemetry = &value;
    } else {
      scalar_params.emplace_back(name, value);
    }
  }
  if ((events == nullptr) == (telemetry == nullptr)) {
    throw ProtocolError("bad_request",
                        "op \"subscribe\" needs exactly one telemetry "
                        "source: \"events\" (array of gap seconds) or "
                        "\"telemetry\" (failure-log CSV text)");
  }

  cli::ArgParser parser("ayd serve: subscribe", "service op");
  tool::add_system_options(parser);
  tool::add_replan_options(parser);
  parse_params(parser, scalar_params);
  const model::System sys = tool::system_from_args(parser);
  const service::ReplanOptions opts =
      tool::replan_options_from_args(parser, sys);

  // Decode the gap sequence. Malformed telemetry is the caller's fault
  // and must surface as a bad_request envelope before any simulation
  // budget is spent — the error texts come verbatim from the sim/trace
  // parser so the CLI and the service report identical diagnostics.
  std::vector<double> gaps;
  if (events != nullptr) {
    if (!events->is_array()) {
      throw ProtocolError("bad_request",
                          "\"events\" must be an array of numbers");
    }
    gaps.reserve(events->as_array().size());
    for (const io::JsonValue& v : events->as_array()) {
      if (!v.is_number()) {
        throw ProtocolError("bad_request",
                            "\"events\" must be an array of numbers");
      }
      gaps.push_back(v.as_double());
    }
  } else {
    if (!telemetry->is_string()) {
      throw ProtocolError("bad_request",
                          "\"telemetry\" must be a string of failure-log "
                          "CSV lines");
    }
    sim::FailureLogReader reader;
    std::istringstream lines(telemetry->as_string());
    std::string line;
    try {
      while (std::getline(lines, line)) {
        if (const auto gap = reader.feed(line)) gaps.push_back(*gap);
      }
    } catch (const util::Error& e) {
      throw ProtocolError("bad_request", e.what());
    }
  }

  // Replay through the same loop `ayd watch` streams. Deliberately not
  // memoised: the canonical key would have to embed the entire telemetry
  // payload, making every cache entry as large as the request and hits
  // (identical full streams) vanishingly rare — recomputation is the
  // honest cost model here.
  Replanner replanner(sys, opts, /*pool=*/nullptr);
  std::vector<std::string> records;
  records.push_back(replanner.initial_record());
  for (const double gap : gaps) {
    if (auto record = replanner.on_gap(gap)) {
      records.push_back(std::move(*record));
    }
  }

  std::ostringstream os;
  os << "{\"procs\":";
  {
    io::JsonWriter w(os);
    w.value(opts.procs);
  }
  os << ",\"events\":" << gaps.size()
     << ",\"replans\":" << replanner.replans()
     << ",\"period\":";
  {
    io::JsonWriter w(os);
    w.value(replanner.deployed_period());
  }
  os << ",\"records\":[";
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (i != 0) os << ',';
    os << records[i];
  }
  os << "]}";
  return make_ok_reply(req.id, req.op, os.str());
}

}  // namespace ayd::service
