// Shared-memory multi-client transport for the planning service.
//
// `ayd serve --shm NAME` publishes a named POSIX shared-memory segment
// that any number of local clients (`ayd call --shm NAME`, ShmClient,
// the bench and stress harnesses) attach to, so N dashboards / sweep
// reruns / CI shards share ONE warm memo cache and ONE worker pool —
// the fleet-level answer reuse ROADMAP item 1 asks for. The framing
// payload stays the NDJSON request/reply lines of docs/service.md, so
// the wire semantics, the error envelope, and the protocol tests carry
// over unchanged; only the byte channel differs.
//
// Segment layout (all offsets computed from the header, everything
// cache-line aligned):
//
//   SegmentHeader   magic "AYDSHM01" | format version | geometry
//                   | server pid | shutdown flag
//   request ring    ShmRing, many producers (clients) -> one consumer
//                   (the server's transport thread); each frame is
//                   RequestFrame{client, generation} + NDJSON line
//   client table    max_clients entries of ClientSlot{pid, generation},
//                   each followed by that client's private reply ring
//                   (producers: the server's workers; consumer: the
//                   client) carrying bare NDJSON reply lines
//
// Client lifecycle:
//  * attach  — CAS a free ClientSlot's pid from 0 to the caller's pid
//              and bump its generation;
//  * call    — push {client, generation, request line} into the request
//              ring, then poll the private reply ring (spin -> yield ->
//              sleeps of at most 1/8 of the wait so far; zero syscalls
//              while the answer is hot);
//  * detach  — store pid = 0 (only with no outstanding call, which the
//              blocking API guarantees);
//  * death   — the server's housekeeping notices the pid is gone,
//              bumps the generation (in-flight replies for the old
//              generation are dropped, never delivered to a reused
//              slot), drains its own in-flight deliveries, resets the
//              reply ring, and frees the slot. A request torn mid-push
//              by the death is retired through the ring's
//              stalled-claim tombstone.
//
// Server lifecycle:
//  * create  — refuses (with path and reason) a segment of a different
//              format version or one still served by a live pid;
//              recovers a *stale* segment (compatible header, dead
//              server) by unlinking and recreating it;
//  * serve   — one transport thread pops requests. A warm hit
//              (PlanningService::handle_warm, about a microsecond) is
//              answered on that thread, which pushes the reply itself;
//              every other request fans out over the service's worker
//              pool (handle_async), whose workers push their replies.
//              The transport thread never blocks on a client: an inline
//              reply gets one push attempt, and when the client's reply
//              ring is full (the client stopped draining) the blocking
//              retry moves to a worker, so one stuck client cannot
//              stall the others' warm hits;
//  * stop    — drains in-flight requests, raises the header's shutdown
//              flag (clients blocked in call() observe it through
//              their mapping and fail fast), unmaps, and unlinks.
//
// Pinned by tests/service_shm_transport_test.cpp (unit + lifecycle),
// tests/service_shm_stress_test.cpp (multi-process byte-identity) and
// tests/service_shm_crash_test.cpp (SIGKILL robustness).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>

#include "ayd/service/shm_ring.hpp"
#include "ayd/util/error.hpp"

namespace ayd::service {

class PlanningService;

/// A shared-memory segment could not be created, validated, attached,
/// or used. Like StoreError, the message always carries the offending
/// path and the reason.
class ShmError : public util::IoError {
 public:
  ShmError(std::string path, std::string reason)
      : util::IoError("shm segment " + path + ": " + reason),
        path_(std::move(path)),
        reason_(std::move(reason)) {}
  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] const std::string& reason() const { return reason_; }

 private:
  std::string path_;
  std::string reason_;
};

/// Geometry of a segment (the `ayd serve --shm` knobs; every field is
/// stamped into the header and validated by attaching clients).
struct ShmOptions {
  /// Request-ring slots (rounded up to a power of two, min 8).
  std::size_t request_slots = 64;
  /// Payload capacity of every frame; one NDJSON request or reply line
  /// must fit (oversize replies degrade to an error envelope).
  std::size_t frame_bytes = 8192;
  /// Client-table entries (attached clients at one time).
  std::size_t max_clients = 64;
  /// Per-client reply-ring slots (rounded up to a power of two, min 4).
  std::size_t reply_slots = 8;
};

/// Escalating wait used by every transport polling loop: spin (hot,
/// ~ns), then yield, then sleeps of 1/8 of the time waited so far,
/// between kSleepFloor and kSleepCap. Warm round trips cost zero
/// syscalls; a wait on a cold compute (~0.6 ms) mostly ends in the yield
/// phase, and a longer one oversleeps its reply by at most about an
/// eighth; an *idle* wait (a client parked on its reply ring between requests)
/// still reaches the 2 ms cap instead of burning a core. Exposed here so
/// the schedule is unit-testable (tests/service_shm_transport_test.cpp
/// pins it).
class ShmBackoff {
 public:
  static constexpr unsigned kSpinPauses = 64;     ///< hot busy-spin phase
  static constexpr unsigned kYieldPauses = 4096;  ///< sched_yield phase
  /// Each sleep is at most 1/kWaitShare of the time waited so far.
  static constexpr unsigned kWaitShare = 8;
  /// Shortest sleep after the yield phase.
  static constexpr std::chrono::microseconds kSleepFloor{50};
  /// Longest sleep: the idle steady-state poll interval.
  static constexpr std::chrono::microseconds kSleepCap{2000};

  /// The sleep the schedule prescribes for the pause with index
  /// `pauses` (0-based count of pauses since the last reset) when the
  /// wait began `waited` ago: zero through the spin/yield phases, then
  /// waited / kWaitShare clamped to [kSleepFloor, kSleepCap]. Pure — the
  /// unit tests enumerate it.
  [[nodiscard]] static constexpr std::chrono::microseconds sleep_for_pause(
      unsigned pauses, std::chrono::microseconds waited) {
    if (pauses < kYieldPauses) return std::chrono::microseconds{0};
    const std::chrono::microseconds share = waited / kWaitShare;
    if (share < kSleepFloor) return kSleepFloor;
    return share < kSleepCap ? share : kSleepCap;
  }

  /// Waits once; returns the sleep it took (zero while spinning or
  /// yielding).
  std::chrono::microseconds pause();
  void reset() { pauses_ = 0; }

 private:
  unsigned pauses_ = 0;
  std::chrono::steady_clock::time_point start_{};  ///< the first pause
};

/// Transport counters (served by ShmServer::stats for tests/benches).
struct ShmServerStats {
  bool recovered_stale = false;  ///< a dead server's segment was replaced
  std::uint64_t requests = 0;    ///< frames popped from the request ring
  /// Warm hits answered on the transport thread, without a worker.
  std::uint64_t inline_hits = 0;
  std::uint64_t reclaimed_clients = 0;   ///< dead clients reaped
  std::uint64_t reclaimed_requests = 0;  ///< torn pushes tombstoned
  std::uint64_t dropped_replies = 0;     ///< replies to dead/stale clients
};

/// The server side: owns the segment (creation through unlink) and the
/// transport thread bridging the request ring to a PlanningService.
class ShmServer {
 public:
  /// Creates segment `name` and starts serving `service` over it.
  /// `service` must outlive this object. Throws ShmError on a
  /// version-mismatched or live-served segment (see file header).
  ShmServer(const std::string& name, PlanningService& service,
            const ShmOptions& options = {});

  /// stop()s, unmaps and unlinks.
  ~ShmServer();

  ShmServer(const ShmServer&) = delete;
  ShmServer& operator=(const ShmServer&) = delete;

  /// Stops the transport thread, drains in-flight requests, raises the
  /// shutdown flag and unlinks the segment. Idempotent.
  void stop();

  [[nodiscard]] ShmServerStats stats() const;

  /// The filesystem path of segment `name` (diagnostics; Linux mounts
  /// POSIX shm at /dev/shm).
  [[nodiscard]] static std::string segment_path(const std::string& name);

  [[nodiscard]] const std::string& name() const { return name_; }

 private:
  struct Impl;

  void transport_loop();
  void dispatch(std::string frame);
  /// Pushes `reply` into the client's reply ring, or drops it when the
  /// client is gone. With `wait` it retries a full ring until the client
  /// drains it, dies, or kReplyPushDeadline passes. Without, it makes one
  /// attempt and returns false, having done nothing, when the ring is
  /// full or a worker is delivering to the same client. True once the
  /// reply is delivered or dropped.
  bool deliver(std::uint32_t client, std::uint32_t generation,
               const std::string& reply, bool wait);
  void reap_dead_clients();
  void reclaim_torn_request();

  std::string name_;
  PlanningService& service_;
  std::unique_ptr<Impl> impl_;
  std::thread thread_;
};

/// The client side: attaches to an existing segment and issues blocking
/// NDJSON round trips. One instance owns one client-table slot; use one
/// instance per thread (call() is strictly serial per instance).
class ShmClient {
 public:
  /// Attaches to segment `name`. Throws ShmError when the segment does
  /// not exist, has a different format version (path + reason), is not
  /// served by a live process, or has no free client slot.
  explicit ShmClient(const std::string& name);

  /// Detaches (frees the client-table slot).
  ~ShmClient();

  ShmClient(const ShmClient&) = delete;
  ShmClient& operator=(const ShmClient&) = delete;

  /// One blocking round trip: pushes `line` (one NDJSON request, no
  /// trailing newline) and waits for its reply. Throws ShmError when
  /// the server shuts down or disappears mid-call, or after
  /// `timeout_ms`; throws util::InvalidArgument when the request
  /// exceeds the segment's frame capacity.
  [[nodiscard]] std::string call(const std::string& line,
                                 std::uint64_t timeout_ms = 60000);

  /// Geometry echo (handy for sizing requests to the segment).
  [[nodiscard]] std::size_t frame_bytes() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ayd::service
