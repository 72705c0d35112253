// The segmented-pattern simulators: one fast and one event-queue
// interpreter for every protocol and failure world except the plain VC
// pattern on a plain System, which keeps the bit-pinned simulators of
// sim/protocol.hpp. The replication driver (sim/runner.cpp) routes
// multi-verification, two-level checkpointing and every extended System
// (model/correlated.hpp) here.
//
// Plan. A pattern has n segments of work T/n, each followed by a
// verification V. A two-level pattern stores a level-1 checkpoint L
// between segments; VC and multi-verification store nothing there. A
// final checkpoint C closes the pattern. VC is n = 1.
//  * A fail-stop error can strike any phase. After a downtime D it rolls
//    back to the pattern start through a chain of recovery tries of cost
//    R, repeated until one completes. Under a two-tier cost spec a chain
//    that contains a shock restores from the PFS (R_pfs); the tier is
//    sticky within the chain and resets when a fresh try begins.
//  * A silent error strikes work only and is caught by the verification
//    that ends its segment. Two-level rolls back to the segment start
//    with one level-1 recovery try of cost L (a fail-stop during it
//    escalates to the R chain); VC and multi roll back to the pattern
//    start with an R chain.
//
// Sources (detail::SegmentedWorld). Fail-stop arrivals superpose one
// renewal source per heterogeneity class (one at the System's law when
// homogeneous, which covers plain Systems) plus, last in draw order, the
// platform-wide shock stream; the earliest strictly-smallest arrival
// strikes. Silent errors are one stream at the base law (detectors are
// application-level; docs/theory.md §6).
//
// Renewal rule, shared by both interpreters:
//  * every fail-stop source renews at each try start — a pattern attempt,
//    or a two-level segment retry after a level-1 recovery — and at each
//    recovery try; a try's arrival covers the rest of the pattern;
//  * the silent source renews at each segment's work start, and its
//    arrival covers that segment's work only.
// For the exponential these renewals are invisible (memorylessness). At
// n = 1 the fast interpreter makes exactly the draws of the plain general
// loop (FastProtocolSimulator) in the same order.
//
// Draw discipline: zero-rate sources consume no engine words, every
// other draw goes through FailureDistribution::sample, and replica i
// always reads RNG substream (seed, i), so results are byte-identical
// across runs and thread counts. There is no CRN pool mode: the draw
// sequence interleaves several laws. Every attempt, retry and recovery
// loop is bounded by kMaxPatternAttempts. The interpreters make
// independent draw sequences with identical distributional assumptions;
// tests/sim_backend_equivalence_test.cpp holds them together, and
// tests/model_correlated_test.cpp validates the source set against
// closed-form marginals.

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ayd/core/multi_verification.hpp"
#include "ayd/core/pattern.hpp"
#include "ayd/core/two_level.hpp"
#include "ayd/model/system.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/sim/event_queue.hpp"
#include "ayd/sim/protocol.hpp"
#include "ayd/sim/trace.hpp"
#include "ayd/sim/variate_pool.hpp"

namespace ayd::sim {

namespace detail {

/// One fail-stop arrival source.
struct FailSource {
  std::unique_ptr<const model::FailureDistribution> dist;
  bool is_shock = false;
};

/// Everything both interpreters share: the resolved failure sources and
/// the segment plan of one pattern.
struct SegmentedWorld {
  SegmentedWorld(const model::System& sys, const core::Pattern& pattern);
  SegmentedWorld(const model::System& sys, const core::MultiPattern& pattern);
  SegmentedWorld(const core::TwoLevelSystem& sys,
                 const core::TwoLevelPattern& pattern);

  /// Recovery cost of the tier a rollback chain is on.
  [[nodiscard]] double recovery_cost(bool pfs) const {
    return pfs ? pfs_recovery : recovery;
  }
  /// True when a shock strike escalates the chain to the PFS tier.
  [[nodiscard]] bool tiered() const { return pfs_recovery != recovery; }
  [[nodiscard]] bool silent_active() const { return silent->rate() > 0.0; }
  [[noreturn]] void throw_diverged() const;

  std::vector<FailSource> fail_sources;  ///< draw order, the shock last
  std::unique_ptr<const model::FailureDistribution> silent;
  double total_fail_rate = 0.0;  ///< sum over fail_sources
  double period;                 ///< T
  double procs;                  ///< P
  int segments;                  ///< n
  bool two_level;                ///< level-1 checkpoints between segments
  double work;                   ///< T / n
  double verify;                 ///< V
  double level1 = 0.0;           ///< L (two-level only)
  double checkpoint;             ///< C
  double recovery;               ///< R (burst buffer under two-tier)
  double pfs_recovery;           ///< R_pfs (== R without two-tier)
  double downtime;               ///< D

 private:
  SegmentedWorld(const model::System& sys, double period, double procs,
                 int segments, bool two_level);
};

}  // namespace detail

/// Closed-form per-segment sampler: one fresh arrival per source at each
/// renewal point, the earliest strike wins. The default backend.
class SegmentedFastSimulator {
 public:
  /// VC (a one-segment pattern), multi-verification and two-level.
  SegmentedFastSimulator(const model::System& sys,
                         const core::Pattern& pattern)
      : world_(sys, pattern) {}
  SegmentedFastSimulator(const model::System& sys,
                         const core::MultiPattern& pattern)
      : world_(sys, pattern) {}
  SegmentedFastSimulator(const core::TwoLevelSystem& sys,
                         const core::TwoLevelPattern& pattern)
      : world_(sys, pattern) {}

  [[nodiscard]] PatternStats simulate_pattern(rng::RngStream& rng) {
    return simulate_replica(rng, 1);
  }
  /// n patterns back to back, stats merged (the replication driver's
  /// loop; equivalent to n simulate_pattern calls, bitwise).
  [[nodiscard]] PatternStats simulate_replica(rng::RngStream& rng,
                                              std::size_t n);

  /// Nothing is prefetched across replicas; exists for the driver.
  void begin_replica() {}
  /// No CRN pool mode (see file header): only nullptr is accepted.
  void set_unit_cursor(UnitVariatePool::Cursor* cursor);

 private:
  detail::SegmentedWorld world_;
};

/// Event-queue reference interpreter: one pending arrival per fail source
/// and one for the current segment's silent source, renewed by the shared
/// rule (arrivals at or beyond their renewal window's end are discarded
/// unscheduled, so a boundary tie never strikes — matching the fast
/// interpreter's strict-< windows). Distributionally identical to
/// SegmentedFastSimulator, plus labelled execution traces: level-1 and
/// final checkpoints both trace as kCheckpoint, both recovery levels as
/// kRecovery.
class SegmentedDesSimulator {
 public:
  SegmentedDesSimulator(const model::System& sys,
                        const core::Pattern& pattern)
      : world_(sys, pattern) {}
  SegmentedDesSimulator(const model::System& sys,
                        const core::MultiPattern& pattern)
      : world_(sys, pattern) {}
  SegmentedDesSimulator(const core::TwoLevelSystem& sys,
                        const core::TwoLevelPattern& pattern)
      : world_(sys, pattern) {}

  /// Simulates one pattern to completion. If `trace` is given, appends
  /// labelled segments starting at `start_time`.
  [[nodiscard]] PatternStats simulate_pattern(rng::RngStream& rng,
                                              Trace* trace = nullptr,
                                              double start_time = 0.0);
  [[nodiscard]] PatternStats simulate_replica(rng::RngStream& rng,
                                              std::size_t n);

  void begin_replica() {}
  /// See SegmentedFastSimulator::set_unit_cursor.
  void set_unit_cursor(UnitVariatePool::Cursor* cursor);

 private:
  detail::SegmentedWorld world_;
  EventQueue queue_;
  /// Pending fail-stop event id per source (kNoEvent when none); the
  /// popped event id identifies its source by lookup here.
  std::vector<std::uint64_t> pending_;
};

}  // namespace ayd::sim
