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
// Warm path: resolving a request (argv, ArgParser, System, canonical key)
// costs far more than the cache probe it ends in, so a front memo maps
// argv_key(op, params) — the exact argv bytes the spec parser would see
// — to the canonical key that request resolved to. A repeated request
// then costs parse, memo lookup, MemoCache::find and reply (about a
// microsecond); a front hit counts as one cache hit, so the stats are
// unchanged. That is less than handing the request to a worker, so both
// transports run this probe (handle_warm) on the thread that read the
// request and send only the rest to the pool. Only requests that
// resolved successfully through a pure function of their argv enter the
// memo: never errors, stats, subscribe or trace:PATH laws (the CSV is
// re-read per request and its gaps are part of the key). The memo shares
// the --cache-entries bound and starts over when full; a stale entry
// (canonical entry evicted or in flight) falls through to the full path.
//
// Concurrency model: serve() answers warm hits on its reader thread and
// fans every other request line out over an owned exec::ThreadPool,
// writing each reply as it completes, so replies can arrive out of
// request order (the id correlates them). Each request's
// evaluation runs serially on its worker — request-level parallelism,
// not replica-level: the other workers are busy with other requests (a
// parallel_for nested on the same pool would run inline anyway).
// Identical concurrent requests collapse to one computation
// (single-flight); distinct requests scale across workers and cache
// shards. The wire protocol is specified in docs/service.md.

#pragma once

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

  /// Handles one request line synchronously on the calling thread and
  /// returns the reply (no trailing newline). Never throws: every
  /// failure becomes an error-envelope reply.
  [[nodiscard]] std::string handle_line(const std::string& line);

  /// Handles one request line on the worker pool and invokes `done`
  /// with the reply from the worker thread. Used by transports that do
  /// their own reply routing (shm_transport.hpp); callers are
  /// responsible for their own backpressure (the pool queue is
  /// unbounded). Like handle_line, the reply is always produced — every
  /// failure becomes an error envelope.
  void handle_async(std::string line, std::function<void(std::string)> done);

  /// The warm path on its own: the reply handle_line would give `line`
  /// when it is an optimize, simulate or plan request spelled like one
  /// already resolved and its answer is cached; nullopt for anything
  /// else (a front miss, a stale entry, stats, subscribe, or a line that
  /// does not parse). Never throws and never computes, so a transport
  /// can run it on the thread that read the line and pass only the
  /// nullopt cases to the pool. A hit counts one cache hit, as it does
  /// through handle_line.
  [[nodiscard]] std::optional<std::string> handle_warm(
      const std::string& line);

  /// Worker threads of the owned pool (transports size their in-flight
  /// windows from this).
  [[nodiscard]] std::size_t workers() const { return pool_.size(); }

  /// The NDJSON loop: reads one request per line from `in` until EOF,
  /// answers warm hits (handle_warm) on the reading thread, fans the
  /// other requests out over the worker pool, and writes each reply
  /// to `out` (newline-terminated, flushed) as it completes — possibly
  /// out of request order. Blank lines are skipped; a final line
  /// without a trailing newline is processed like any other. Returns
  /// true when every accepted request was answered and `out` stayed
  /// healthy; false when a reply write failed (client gone / pipe
  /// closed) — the loop then stops reading further input instead of
  /// spinning against a dead stream, and the caller should exit
  /// non-zero.
  [[nodiscard]] bool serve(std::istream& in, std::ostream& out);

  /// Snapshot of the memo-cache counters (also served by op "stats").
  [[nodiscard]] CacheStats cache_stats() const { return cache_.stats(); }

  /// The persistent tier, or null when --cache-dir was not given.
  [[nodiscard]] const AnswerStore* store() const { return store_.get(); }

  [[nodiscard]] const ServiceOptions& options() const { return options_; }

 private:
  // A ShmServer attaches itself for its lifetime, so op "stats" can
  // report its counters.
  friend class ShmServer;
  void attach_transport(const ShmServer* server);
  void detach_transport(const ShmServer* server);

  /// Routes a parsed request to its op handler; throws ProtocolError /
  /// util::Error on failures (handle_line wraps them into envelopes).
  [[nodiscard]] std::string dispatch(const Request& req);

  [[nodiscard]] std::string handle_stats(const Request& req);
  [[nodiscard]] std::string handle_subscribe(const Request& req);

  /// The one warm path (dispatch and handle_warm): the reply to `req`
  /// when a request with the argv_key `front` resolved before and its
  /// canonical entry is cached; nullopt on a front miss or a stale entry.
  [[nodiscard]] std::optional<std::string> warm_reply(
      const Request& req, const std::string& front);
  /// Records that `front` resolved to `key` (pure resolutions only).
  void remember(std::string front, CanonicalKey key);

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
  exec::ThreadPool pool_;
};

}  // namespace ayd::service
