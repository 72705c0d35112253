#include "ayd/service/shm_ring.hpp"

#include <cstring>
#include <new>

#include "ayd/util/error.hpp"

namespace ayd::service {

// The bounded-MPMC discipline: slot i starts with seq == i ("free for
// the producer of position i"). A producer claims position p by CAS on
// head, writes the payload, then publishes with seq = p + 1. The
// consumer of position p waits for seq == p + 1, reads, and recycles
// with seq = p + slots ("free for the producer of position p + slots").
// The cursors only order *claims*; the slot sequence is the commit flag
// that orders the payload bytes.

struct alignas(kShmCacheLine) ShmRing::Header {
  std::atomic<std::uint64_t> head;  ///< next position to enqueue
  char pad0[kShmCacheLine - sizeof(std::atomic<std::uint64_t>)];
  std::atomic<std::uint64_t> tail;  ///< next position to dequeue
  char pad1[kShmCacheLine - sizeof(std::atomic<std::uint64_t>)];
  std::uint64_t slots;        ///< power of two
  std::uint64_t frame_bytes;  ///< payload capacity per slot
};

struct alignas(kShmCacheLine) ShmRing::Slot {
  std::atomic<std::uint64_t> seq;       ///< the commit flag (see above)
  std::atomic<std::uint32_t> claimant;  ///< producer pid mid-push; else 0
  std::uint32_t len;                    ///< payload length or kTombstoneLen
  // payload bytes follow at offset sizeof(Slot) (cache-line aligned).

  static void check_layout() {
    static_assert(sizeof(Header) == 3 * kShmCacheLine);
    static_assert(sizeof(Slot) == kShmCacheLine);
  }
};

static_assert(std::atomic<std::uint64_t>::is_always_lock_free &&
                  std::atomic<std::uint32_t>::is_always_lock_free,
              "shared-memory ring atomics must be lock-free: a lock-based "
              "fallback would place process-private mutexes in the segment");

namespace {

std::size_t align_up(std::size_t n, std::size_t a) {
  return (n + a - 1) / a * a;
}

bool is_pow2(std::size_t n) { return n >= 2 && (n & (n - 1)) == 0; }

}  // namespace

std::size_t ShmRing::slot_stride() const {
  return align_up(sizeof(Slot) + header_->frame_bytes, kShmCacheLine);
}

ShmRing::Slot* ShmRing::slot_at(std::uint64_t index) const {
  return reinterpret_cast<Slot*>(
      slot_base_ + static_cast<std::size_t>(index) * slot_stride());
}

std::size_t ShmRing::bytes_required(std::size_t slots,
                                    std::size_t frame_bytes) {
  if (!is_pow2(slots)) {
    throw util::InvalidArgument(
        "ShmRing: slot count must be a power of two >= 2");
  }
  return sizeof(Header) +
         slots * align_up(sizeof(Slot) + frame_bytes, kShmCacheLine);
}

ShmRing ShmRing::init(void* block, std::size_t slots,
                      std::size_t frame_bytes) {
  (void)bytes_required(slots, frame_bytes);  // validates `slots`
  auto* header = new (block) Header;
  header->head.store(0, std::memory_order_relaxed);
  header->tail.store(0, std::memory_order_relaxed);
  header->slots = slots;
  header->frame_bytes = frame_bytes;
  ShmRing ring(header, static_cast<char*>(block) + sizeof(Header));
  for (std::uint64_t i = 0; i < slots; ++i) {
    auto* slot = new (ring.slot_at(i)) Slot;
    slot->seq.store(i, std::memory_order_relaxed);
    slot->claimant.store(0, std::memory_order_relaxed);
    slot->len = 0;
  }
  std::atomic_thread_fence(std::memory_order_release);
  return ring;
}

ShmRing ShmRing::view(void* block) {
  auto* header = static_cast<Header*>(block);
  return ShmRing(header, static_cast<char*>(block) + sizeof(Header));
}

bool ShmRing::try_push(std::string_view prefix, std::string_view body,
                       std::uint32_t claimant_pid) {
  const std::size_t total = prefix.size() + body.size();
  if (total > header_->frame_bytes) {
    throw util::InvalidArgument(
        "ShmRing: frame of " + std::to_string(total) +
        " bytes exceeds the slot capacity of " +
        std::to_string(header_->frame_bytes) + " bytes");
  }
  const std::uint64_t mask = header_->slots - 1;
  std::uint64_t pos = header_->head.load(std::memory_order_relaxed);
  for (;;) {
    Slot* slot = slot_at(pos & mask);
    const std::uint64_t seq = slot->seq.load(std::memory_order_acquire);
    const auto dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos);
    if (dif == 0) {
      if (header_->head.compare_exchange_weak(pos, pos + 1,
                                              std::memory_order_relaxed)) {
        // Claimed. Stamp the claimant first so a death anywhere in the
        // payload copy below is attributable to this pid.
        slot->claimant.store(claimant_pid, std::memory_order_relaxed);
        char* payload = reinterpret_cast<char*>(slot) + sizeof(Slot);
        // An empty part may have a null data(); memcpy from null is UB
        // even for zero bytes.
        if (!prefix.empty()) {
          std::memcpy(payload, prefix.data(), prefix.size());
        }
        if (!body.empty()) {
          std::memcpy(payload + prefix.size(), body.data(), body.size());
        }
        slot->len = static_cast<std::uint32_t>(total);
        slot->seq.store(pos + 1, std::memory_order_release);  // commit
        return true;
      }
      // CAS updated `pos` to the current head; retry there.
    } else if (dif < 0) {
      return false;  // the slot still holds an unconsumed older frame
    } else {
      pos = header_->head.load(std::memory_order_relaxed);
    }
  }
}

ShmRing::Pop ShmRing::try_pop(std::string& out) {
  const std::uint64_t mask = header_->slots - 1;
  std::uint64_t pos = header_->tail.load(std::memory_order_relaxed);
  for (;;) {
    Slot* slot = slot_at(pos & mask);
    const std::uint64_t seq = slot->seq.load(std::memory_order_acquire);
    const auto dif =
        static_cast<std::int64_t>(seq) - static_cast<std::int64_t>(pos + 1);
    if (dif == 0) {
      if (header_->tail.compare_exchange_weak(pos, pos + 1,
                                              std::memory_order_relaxed)) {
        const bool tombstone = slot->len == kTombstoneLen;
        if (!tombstone) {
          const char* payload =
              reinterpret_cast<const char*>(slot) + sizeof(Slot);
          out.assign(payload, slot->len);
        }
        slot->claimant.store(0, std::memory_order_relaxed);
        // Recycle: free for the producer one lap ahead.
        slot->seq.store(pos + header_->slots, std::memory_order_release);
        return tombstone ? Pop::kTombstone : Pop::kFrame;
      }
    } else if (dif < 0) {
      return Pop::kEmpty;
    } else {
      pos = header_->tail.load(std::memory_order_relaxed);
    }
  }
}

std::optional<ShmRing::StalledClaim> ShmRing::stalled_claim() const {
  const std::uint64_t mask = header_->slots - 1;
  const std::uint64_t pos = header_->tail.load(std::memory_order_acquire);
  const Slot* slot = slot_at(pos & mask);
  // seq == pos means "free for the producer of pos" — unless head has
  // already moved past pos, in which case pos *was* claimed and its
  // producer never committed.
  if (slot->seq.load(std::memory_order_acquire) != pos) return std::nullopt;
  if (header_->head.load(std::memory_order_acquire) <= pos) {
    return std::nullopt;
  }
  return StalledClaim{pos, slot->claimant.load(std::memory_order_acquire)};
}

bool ShmRing::tombstone_stalled(std::uint64_t pos) {
  const std::uint64_t mask = header_->slots - 1;
  Slot* slot = slot_at(pos & mask);
  if (slot->seq.load(std::memory_order_acquire) != pos) {
    return false;  // the producer committed (or the slot recycled) meanwhile
  }
  slot->len = kTombstoneLen;
  slot->seq.store(pos + 1, std::memory_order_release);
  return true;
}

void ShmRing::reset() {
  header_->head.store(0, std::memory_order_relaxed);
  header_->tail.store(0, std::memory_order_relaxed);
  for (std::uint64_t i = 0; i < header_->slots; ++i) {
    Slot* slot = slot_at(i);
    slot->claimant.store(0, std::memory_order_relaxed);
    slot->len = 0;
    slot->seq.store(i, std::memory_order_release);
  }
}

std::size_t ShmRing::slots() const {
  return static_cast<std::size_t>(header_->slots);
}

std::size_t ShmRing::frame_bytes() const {
  return static_cast<std::size_t>(header_->frame_bytes);
}

std::uint64_t ShmRing::simulate_torn_push(std::uint32_t claimant) {
  const std::uint64_t pos =
      header_->head.fetch_add(1, std::memory_order_relaxed);
  if (claimant != 0) {
    slot_at(pos & (header_->slots - 1))
        ->claimant.store(claimant, std::memory_order_relaxed);
  }
  return pos;
}

}  // namespace ayd::service
