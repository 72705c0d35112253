// Lock-free fixed-slot circular element array over raw shared memory —
// the primitive under the planning service's multi-client transport
// (shm_transport.hpp).
//
// The ring is a bounded multi-producer/multi-consumer queue of
// fixed-capacity frames (the `circ_elem_array` idiom from cpp-ipc):
//
//  * a fixed power-of-two array of cache-line-aligned slots, each
//    carrying a payload area of `frame_bytes` plus a per-slot *commit
//    sequence* — the flag that tells consumers "these bytes are fully
//    written";
//  * two cache-line-separated atomic cursors, `head` (enqueue) and
//    `tail` (dequeue), each claimed by compare-exchange so any number
//    of producers and consumers can race without locks;
//  * acquire/release ordering on the slot sequence is the only
//    synchronisation a frame's payload needs: a producer publishes with
//    one release store, a consumer observes it with one acquire load —
//    no syscalls anywhere on the fast path.
//
// The ring itself is position-independent: every field lives inside the
// caller-provided memory block (typically a POSIX shared-memory
// mapping), so any process that maps the block can produce or consume.
// All atomics are required lock-free (static_asserted) — a lock-based
// fallback would put a process-private mutex in shared memory.
//
// Crash robustness. A producer that dies *mid-push* — after claiming a
// position but before committing the slot — would wedge consumers at
// that position forever (later commits are unreachable behind it). To
// make that recoverable, a producer stamps its pid into the slot's
// `claimant` field immediately after the claim; a supervisor (the shm
// server's housekeeping loop) can then detect the stall with
// `stalled_claim()` and, once the claimant is known dead, retire the
// position with `tombstone_stalled()` — committing a tombstone frame
// that consumers skip. The unattributable window (death between the
// claim CAS and the pid stamp, a couple of instructions) is handled by
// the caller with a grace timeout. Pinned by
// tests/service_shm_transport_test.cpp and raced cross-process by
// tests/service_shm_stress_test.cpp.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace ayd::service {

/// Alignment that keeps hot atomics on distinct cache lines.
inline constexpr std::size_t kShmCacheLine = 64;

/// A view over a ring living in a caller-provided memory block. Copying
/// the view is cheap (two pointers); the ring state lives in the block.
class ShmRing {
 public:
  /// `len` marker of a retired (crash-reclaimed) slot; consumers skip it.
  static constexpr std::uint32_t kTombstoneLen = 0xffffffffu;

  /// Outcome of one try_pop.
  enum class Pop {
    kEmpty,      ///< no committed frame available
    kFrame,      ///< a frame was read into `out`
    kTombstone,  ///< a crash-reclaimed slot was skipped (nothing read)
  };

  /// A claimed-but-uncommitted position observed at the tail: the
  /// signature of a producer that died (or stalled) mid-push.
  struct StalledClaim {
    std::uint64_t position = 0;
    /// Pid the producer stamped after its claim; 0 when it died inside
    /// the claim/stamp window (unattributable — callers apply a grace
    /// timeout before forcing).
    std::uint32_t claimant = 0;
  };

  ShmRing() = default;

  /// Bytes a ring with `slots` slots of `frame_bytes` payload needs.
  /// `slots` must be a power of two >= 2.
  [[nodiscard]] static std::size_t bytes_required(std::size_t slots,
                                                  std::size_t frame_bytes);

  /// Placement-initialises a fresh ring in `block` (which must hold
  /// bytes_required() bytes, kShmCacheLine-aligned) and returns a view.
  [[nodiscard]] static ShmRing init(void* block, std::size_t slots,
                                    std::size_t frame_bytes);

  /// Views a ring previously init()ed in `block` (same or any other
  /// process mapping the same memory).
  [[nodiscard]] static ShmRing view(void* block);

  /// Enqueues one frame, `prefix` followed by `body` (the scatter-gather
  /// form saves callers a concatenation). Returns false when the ring is
  /// full. Throws util::InvalidArgument when the frame exceeds
  /// frame_bytes(). `claimant_pid` is stamped for crash attribution.
  [[nodiscard]] bool try_push(std::string_view prefix, std::string_view body,
                              std::uint32_t claimant_pid);

  /// Dequeues one frame into `out` (overwritten). Never blocks.
  [[nodiscard]] Pop try_pop(std::string& out);

  /// Inspects the tail position for a claimed-but-uncommitted slot.
  /// Meaningful when the caller is the only consumer (the shm server).
  [[nodiscard]] std::optional<StalledClaim> stalled_claim() const;

  /// Retires the stalled position `pos` by committing a tombstone.
  /// Only safe when the claimant is known dead (its pid no longer
  /// exists) or the caller's grace timeout expired on an unattributable
  /// claim. Returns false if the position was committed meanwhile.
  bool tombstone_stalled(std::uint64_t pos);

  /// Re-initialises cursors and slot sequences. Only safe when no
  /// producer or consumer can touch the ring (the shm server resets a
  /// dead client's reply ring after draining its in-flight replies).
  void reset();

  [[nodiscard]] std::size_t slots() const;
  [[nodiscard]] std::size_t frame_bytes() const;

  /// Test-only crash injection: claims a position and stamps `claimant`
  /// but never commits — exactly the footprint of a producer SIGKILLed
  /// mid-push. Pass claimant 0 to model death inside the claim/stamp
  /// window. Returns the claimed position.
  std::uint64_t simulate_torn_push(std::uint32_t claimant);

 private:
  struct Header;
  struct Slot;

  ShmRing(Header* header, char* slot_base) noexcept
      : header_(header), slot_base_(slot_base) {}

  [[nodiscard]] Slot* slot_at(std::uint64_t index) const;
  [[nodiscard]] std::size_t slot_stride() const;

  Header* header_ = nullptr;
  char* slot_base_ = nullptr;
};

}  // namespace ayd::service
