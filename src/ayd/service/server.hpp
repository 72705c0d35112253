// The long-lived planning service behind `ayd serve`.
//
// PlanningService answers NDJSON planning requests (protocol.hpp) over
// any istream/ostream pair, memoising every expensive answer in a
// sharded single-flight LRU cache (memo_cache.hpp) keyed by canonical
// scenario identity (canonical.hpp), optionally backed by a persistent
// answer store (store.hpp, --cache-dir) that survives restarts. Because
// every evaluation in this repository is a pure, deterministic function
// of the resolved request, a warm hit — from RAM or from disk — returns
// the *byte-identical* reply a recomputation would produce, confidence
// intervals included, which is what makes serving repeated planning
// queries (dashboards, sweep reruns, CI) from memory sound.
//
// One request path: both transports hand every line to submit(), which
// parses it once and, for optimize, simulate and plan, computes its
// argv_key and probes the front memo once. Resolving a request (argv,
// ArgParser, System, canonical key) costs far more than the cache probe
// it ends in, so the front memo maps argv_key(op, params) — the exact
// argv bytes the spec parser would see — to the canonical key that
// request resolved to. A repeated request then costs parse, memo lookup,
// MemoCache::find and reply (about a microsecond); a front hit counts as
// one cache hit, so the stats are unchanged. That is less than handing
// the request to a worker, so a warm hit is answered on the thread that
// called submit() and only the rest go to the pool, already parsed. Only
// requests that resolved successfully through a pure function of their
// argv enter the memo: never errors, stats, subscribe or trace:PATH laws
// (the CSV is re-read per request and its gaps are part of the key). The
// memo shares the --cache-entries bound and starts over when full; a
// stale entry (canonical entry evicted or in flight) takes the full path.
//
// Concurrency model: every request that is not a warm hit makes exactly
// one hop to an owned exec::ThreadPool, whose worker runs the reply sink,
// so replies can arrive out of request order (the id correlates them).
// One in-flight window, max(64, 4 * workers), bounds those hops across
// every transport: submit() blocks while it is full, which is the pipe's
// backpressure, and drain() waits the window empty before a transport
// shuts down. Each request's evaluation runs serially on its worker —
// request-level parallelism, not replica-level: the other workers are
// busy with other requests (a parallel_for nested on the same pool would
// run inline anyway). Identical concurrent requests collapse to one
// computation (single-flight); distinct requests scale across workers
// and cache shards. The wire protocol is specified in docs/service.md.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "ayd/exec/thread_pool.hpp"
#include "ayd/service/memo_cache.hpp"
#include "ayd/service/protocol.hpp"
#include "ayd/service/store.hpp"

namespace ayd::service {

class ShmServer;

/// Construction knobs of the service (the `ayd serve` flags).
struct ServiceOptions {
  /// Worker threads of the request pool (0 = hardware concurrency).
  unsigned threads = 0;
  /// Total memo-cache capacity in cached replies (--cache-entries).
  std::size_t cache_entries = 4096;
  /// Lock shards of the memo cache, rounded up to a power of two
  /// (--cache-shards).
  std::size_t cache_shards = 16;
  /// Directory of the persistent answer store (--cache-dir; empty
  /// disables the disk tier). Created on demand; see store.hpp.
  std::string cache_dir{};
};

class PlanningService {
 public:
  /// Throws StoreError when `options.cache_dir` is set but the
  /// persistent store cannot be opened (incompatible header, unwritable
  /// directory) — a service must not start quietly without the disk
  /// tier its caller asked for.
  explicit PlanningService(const ServiceOptions& options = {});

  PlanningService(const PlanningService&) = delete;
  PlanningService& operator=(const PlanningService&) = delete;

  /// Delivers one reply. `may_block` is false only for a warm hit on the
  /// thread that called submit(): the sink must then not block, and
  /// returns false when it cannot deliver at once (a full reply ring), so
  /// that the service runs it again on a worker with `may_block` true. A
  /// sink called with `may_block` true delivers or drops the reply; what
  /// it returns is ignored.
  using ReplySink =
      std::function<bool(const std::string& reply, bool may_block)>;

  /// Handles one request line synchronously on the calling thread and
  /// returns the reply (no trailing newline): the same path as submit(),
  /// without the hop. Never throws: every failure becomes an
  /// error-envelope reply.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// The request path of every transport. Parses `line` once; a warm hit
  /// (an optimize, simulate or plan request spelled like one already
  /// resolved, whose answer is cached) runs `sink` on the calling thread.
  /// Every other line — a cold miss, stats, subscribe, an error — goes to
  /// one worker as the parsed request, and the worker runs `sink` with
  /// the reply handle_line would give. That hop waits while the in-flight
  /// window is full or a drain() waits. `sink` runs exactly once, or
  /// twice when a warm hit's first call returns false.
  void submit(const std::string& line, ReplySink sink);

  /// Waits until every hop to a worker has finished, its sink included;
  /// hops submitted meanwhile wait for it to return, so it cannot be
  /// starved. A transport calls it after its last submit(), before it
  /// releases what its sinks use.
  void drain();

  /// The NDJSON loop: reads one request per line from `in` until EOF,
  /// submits each, and writes each reply to `out` (newline-terminated,
  /// flushed) as it completes — possibly out of request order. Blank
  /// lines are skipped; a final line without a trailing newline is
  /// processed like any other. Returns true when every accepted request
  /// was answered and `out` stayed healthy; false when a reply write
  /// failed (client gone / pipe closed) — the loop then stops reading
  /// further input instead of spinning against a dead stream, and the
  /// caller should exit non-zero.
  [[nodiscard]] bool serve(std::istream& in, std::ostream& out);

  /// Snapshot of the memo-cache counters (also served by op "stats").
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }

  /// The persistent tier, or null when --cache-dir was not given.
  [[nodiscard]] const AnswerStore* store() const { return store_.get(); }

 private:
  // A ShmServer attaches itself for its lifetime, so op "stats" can
  // report its counters.
  friend class ShmServer;
  void attach_transport(const ShmServer* server);
  void detach_transport(const ShmServer* server);

  /// A request line after the stage every line shares (stage()).
  struct Staged;

  /// Parses `line` and, for optimize, simulate and plan, computes its
  /// argv_key and probes the front memo — each exactly once. The result
  /// carries a warm hit's reply, or the failure that stopped it. Never
  /// throws.
  [[nodiscard]] Staged stage(const std::string& line);
  /// The reply to a staged line: its warm reply, its error envelope, or
  /// else the op's answer (resolve, cache, compute). Never throws.
  [[nodiscard]] std::string answer(Staged&& staged);
  /// Routes a parsed request to its op handler without probing the front
  /// memo again; throws ProtocolError / util::Error on failures (answer
  /// wraps them into envelopes).
  [[nodiscard]] std::string dispatch(const Request& req, std::string front);

  [[nodiscard]] std::string handle_stats(const Request& req);
  [[nodiscard]] std::string handle_subscribe(const Request& req);

  /// The reply to `req` when a request with the argv_key `front`
  /// resolved before and its canonical entry is cached; nullopt on a
  /// front miss or a stale entry.
  [[nodiscard]] std::optional<std::string> warm_reply(
      const Request& req, const std::string& front);
  /// Records that `front` resolved to `key` (pure resolutions only).
  void remember(std::string front, CanonicalKey key);

  /// Runs `task` on a worker once the in-flight window has room (the
  /// one pool hop of a request; defined in server.cpp, its only user).
  template <typename Task>
  void hop(Task task);

  ServiceOptions options_;
  /// Constructed before cache_, which holds a non-owning pointer to it.
  std::unique_ptr<AnswerStore> store_;
  MemoCache cache_;
  /// The front memo: argv_key(op, params) -> the canonical key that
  /// request resolved to, at most options_.cache_entries entries.
  std::mutex front_mutex_;
  std::unordered_map<std::string, std::shared_ptr<const CanonicalKey>>
      front_;
  /// The attached shm transport (null on a pipe-only serve), guarded so a
  /// stats request never reads a server that is detaching.
  std::mutex transport_mutex_;
  const ShmServer* transport_ = nullptr;
  /// The in-flight window: hops not yet finished, across every transport,
  /// and the drain() calls waiting for it to empty (no hop starts while
  /// one waits).
  std::mutex window_mutex_;
  std::condition_variable window_cv_;
  std::size_t in_flight_ = 0;
  std::size_t draining_ = 0;
  /// Declared last: its destructor runs the queued hops, which use the
  /// window above.
  exec::ThreadPool pool_;
};

}  // namespace ayd::service
