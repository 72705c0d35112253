#include "ayd/sim/pending_set.hpp"

#include <functional>
#include <limits>
#include <optional>
#include <queue>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "ayd/rng/stream.hpp"

namespace ayd::sim {
namespace {

TEST(PendingSet, PopsInTimeOrder) {
  PendingSet<3> set;
  set.schedule(0, 3.0);
  set.schedule(1, 1.0);
  set.schedule(2, 2.0);
  EXPECT_EQ(set.pop()->slot, 1u);
  EXPECT_EQ(set.pop()->slot, 2u);
  const auto last = set.pop();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->slot, 0u);
  EXPECT_EQ(last->time, 3.0);
  EXPECT_FALSE(set.pop().has_value());
}

TEST(PendingSet, TiesBreakInScheduleOrder) {
  // Equal times fire in schedule order, whatever the slot order.
  PendingSet<3> set;
  set.schedule(2, 5.0);
  set.schedule(0, 5.0);
  set.schedule(1, 5.0);
  EXPECT_EQ(set.pop()->slot, 2u);
  EXPECT_EQ(set.pop()->slot, 0u);
  EXPECT_EQ(set.pop()->slot, 1u);
}

TEST(PendingSet, CancelClearsTheSlotAndItCanBeRescheduled) {
  PendingSet<2> set;
  set.schedule(0, 1.0);
  set.schedule(1, 2.0);
  set.cancel(0);
  set.cancel(0);  // cancelling an empty slot is a no-op
  // A re-scheduled slot takes a newer id: on a time tie it fires after
  // the event scheduled before it.
  set.schedule(0, 2.0);
  EXPECT_EQ(set.pop()->slot, 1u);
  EXPECT_EQ(set.pop()->slot, 0u);
  EXPECT_FALSE(set.pop().has_value());
}

TEST(PendingSet, ResetEmptiesEverySlotAndRestartsTheCounter) {
  PendingSet<2> set;
  set.schedule(0, 1.0);
  set.schedule(1, 2.0);
  set.reset();
  EXPECT_FALSE(set.pop().has_value());
  set.schedule(1, 4.0);
  set.schedule(0, 4.0);
  EXPECT_EQ(set.pop()->slot, 1u);
}

TEST(PendingSet, InfiniteTimeStillPops) {
  PendingSet<2> set;
  set.schedule(0, std::numeric_limits<double>::infinity());
  set.schedule(1, 10.0);
  EXPECT_EQ(set.pop()->slot, 1u);
  const auto last = set.pop();
  ASSERT_TRUE(last.has_value());
  EXPECT_EQ(last->slot, 0u);
  EXPECT_FALSE(set.pop().has_value());
}

// ---- seeded differential against a priority-queue model ------------------
//
// Reference model: std::priority_queue over (time, id) with lazy
// cancellation by slot generation — the general structure the pending set
// replaces. Random workloads under the one-pending-event-per-slot rule
// drive both, and every pop must agree.

class ReferenceQueue {
 public:
  explicit ReferenceQueue(std::size_t slots) : live_(slots, kNone) {}

  void schedule(std::size_t slot, double time) {
    live_[slot] = next_id_;
    heap_.push({time, next_id_++, slot});
  }
  void cancel(std::size_t slot) { live_[slot] = kNone; }
  bool pending(std::size_t slot) const { return live_[slot] != kNone; }
  void reset() {
    heap_ = {};
    live_.assign(live_.size(), kNone);
    next_id_ = 0;
  }
  std::optional<PendingSet<>::Event> pop() {
    while (!heap_.empty()) {
      const auto [time, id, slot] = heap_.top();
      heap_.pop();
      if (live_[slot] != id) continue;  // cancelled or superseded
      live_[slot] = kNone;
      return PendingSet<>::Event{slot, time};
    }
    return std::nullopt;
  }

 private:
  static constexpr std::uint64_t kNone =
      std::numeric_limits<std::uint64_t>::max();
  using Entry = std::tuple<double, std::uint64_t, std::size_t>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<std::uint64_t> live_;
  std::uint64_t next_id_ = 0;
};

/// Drives `set` and a ReferenceQueue of `slots` slots through one seeded
/// random workload; every pop must agree.
template <class Set>
void expect_matches_reference(Set& set, std::size_t slots,
                              rng::RngStream& rng) {
  ReferenceQueue ref(slots);
  const int steps = 40 + static_cast<int>(rng.next_index(200));
  for (int s = 0; s < steps; ++s) {
    const std::size_t slot = rng.next_index(slots);
    switch (rng.next_index(8)) {
      case 0:
      case 1:
      case 2: {  // schedule an empty slot, with deliberate tie mass
        if (ref.pending(slot)) break;
        const double time = rng.next_bernoulli(0.3)
                                ? static_cast<double>(rng.next_index(4))
                                : rng.next_uniform(0.0, 100.0);
        set.schedule(slot, time);
        ref.schedule(slot, time);
        break;
      }
      case 3:
      case 4:
      case 5: {
        const auto a = set.pop();
        const auto b = ref.pop();
        ASSERT_EQ(a.has_value(), b.has_value()) << "step " << s;
        if (a.has_value()) {
          EXPECT_EQ(a->slot, b->slot) << "step " << s;
          EXPECT_EQ(a->time, b->time) << "step " << s;
        }
        break;
      }
      case 6:
        set.cancel(slot);
        ref.cancel(slot);
        break;
      case 7:
        if (rng.next_bernoulli(0.1)) {
          set.reset();
          ref.reset();
        }
        break;
    }
  }
  // Drain completely; the order must match to the end.
  for (;;) {
    const auto a = set.pop();
    const auto b = ref.pop();
    ASSERT_EQ(a.has_value(), b.has_value());
    if (!a.has_value()) break;
    EXPECT_EQ(a->slot, b->slot);
    EXPECT_EQ(a->time, b->time);
  }
}

TEST(PendingSetDifferential, RandomWorkloadsMatchAPriorityQueue) {
  rng::RngStream rng(2024);
  for (int round = 0; round < 60; ++round) {
    const std::size_t slots = 1 + rng.next_index(6);
    PendingSet<> set(slots);
    expect_matches_reference(set, slots, rng);
  }
  // The compile-time-sized set (the plain DES's three roles).
  for (int round = 0; round < 20; ++round) {
    PendingSet<3> set;
    expect_matches_reference(set, 3, rng);
  }
}

}  // namespace
}  // namespace ayd::sim
