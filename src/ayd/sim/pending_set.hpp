// Pending-event set of the DES interpreters: one slot per event role.
//
// Each role of a DES state machine holds at most one pending event at a
// time: the current phase's end, the current work segment's silent
// arrival, and one fail-stop arrival per failure source. So instead of a
// priority queue the set is a fixed array of slots, one per role, and
// pop() scans it for the earliest event. A cancelled event is simply an
// emptied slot; nothing is allocated after construction.
//
// Ordering: earliest time first; ties broken by schedule order. Every
// schedule() takes the next id from one counter, so events at equal times
// fire in the order they were scheduled (deterministic replay), exactly as
// a (time, id)-ordered priority queue would fire them.

#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <vector>

namespace ayd::sim {

/// `Slots` fixes the slot count at compile time (the slots live inline
/// and pop's scan unrolls); 0 sizes it at construction instead.
template <std::size_t Slots = 0>
class PendingSet {
 public:
  /// A popped event: the slot (role) it was scheduled in, and its time.
  struct Event {
    std::size_t slot;
    double time;
  };

  PendingSet()
    requires(Slots > 0)
  = default;
  explicit PendingSet(std::size_t slots)
    requires(Slots == 0)
      : slots_(slots) {}

  /// Empties every slot and restarts the schedule counter.
  void reset() {
    for (Slot& s : slots_) s = Slot{};
    next_id_ = 0;
  }

  /// Schedules the event of `slot` at `time`. The slot must be empty
  /// (pop or cancel it first): a role has one pending event at most.
  void schedule(std::size_t slot, double time) {
    slots_[slot] = Slot{time, next_id_++};
  }

  /// Cancels the pending event of `slot`; a no-op on an empty slot.
  void cancel(std::size_t slot) { slots_[slot] = Slot{}; }

  /// True when `slot` holds a pending event.
  [[nodiscard]] bool scheduled(std::size_t slot) const {
    return slots_[slot].id != kEmpty;
  }

  /// Removes and returns the earliest pending event (smallest time, then
  /// smallest id); nullopt when every slot is empty.
  [[nodiscard]] std::optional<Event> pop() {
    std::size_t best = 0;
    for (std::size_t i = 1; i < slots_.size(); ++i) {
      if (slots_[i].before(slots_[best])) best = i;
    }
    if (slots_.empty() || slots_[best].id == kEmpty) return std::nullopt;
    const double time = slots_[best].time;
    slots_[best] = Slot{};
    return Event{best, time};
  }

 private:
  static constexpr std::uint64_t kEmpty =
      std::numeric_limits<std::uint64_t>::max();

  /// An empty slot sorts after every pending event, +inf times included
  /// (their ids are below kEmpty).
  struct Slot {
    double time = std::numeric_limits<double>::infinity();
    std::uint64_t id = kEmpty;

    [[nodiscard]] bool before(const Slot& o) const {
      return time < o.time || (time == o.time && id < o.id);
    }
  };

  std::conditional_t<Slots == 0, std::vector<Slot>, std::array<Slot, Slots>>
      slots_{};
  std::uint64_t next_id_ = 0;
};

}  // namespace ayd::sim
