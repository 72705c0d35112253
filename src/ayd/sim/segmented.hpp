// The segmented-pattern simulators: one fast and one discrete-event
// interpreter for every protocol and failure world, and the only ones.
// The VC pattern on a plain System is each interpreter's one-source,
// one-segment world, the plain shape (FastProtocolSimulator and
// DesProtocolSimulator of sim/protocol.hpp name them there); the
// replication driver (sim/runner.cpp) picks the interpreter by backend
// alone.
//
// Plan. A pattern has n segments of work T/n, each followed by a
// verification V. A two-level pattern stores a level-1 checkpoint L
// between segments; VC and multi-verification store nothing there. A
// final checkpoint C closes the pattern. VC is n = 1.
//  * A fail-stop error can strike any phase. After a downtime D it rolls
//    back to the pattern start through a chain of recovery tries of cost
//    R, repeated until one completes. Under a shock's PFS penalty a chain
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
// For the exponential these renewals are invisible (memorylessness); the
// DES's plain shape therefore keeps a memoryless arrival instead
// (SegmentedDesSimulator).
//
// Draw discipline: zero-rate sources consume no engine words, every
// other draw consumes exactly the words FailureDistribution::sample
// would, in draw order (the DES's block on the plain shape pulls them
// ahead of use), and replica i always reads RNG substream (seed, i), so
// results are byte-identical across runs and thread counts. The fast
// interpreter filters the draws of unit-samplable sources by CDF
// threshold (safe_word_threshold, built once per plan for every
// window a draw is compared against: the try window from each start
// segment, R, R_pfs, L, and T/n for the silent source): a word at or
// above the threshold provably inverts beyond the window, so the arrival
// is left at +inf and the quantile inversion is skipped; only words below
// it compute the exact arrival (sample_value). Other sources (trace
// replay) draw through sample, as does the DES off the plain shape. Every
// attempt, retry and recovery loop is bounded by kMaxPatternAttempts. The
// interpreters make independent draw sequences with identical
// distributional assumptions; tests/sim_backend_equivalence_test.cpp
// holds them together, and tests/model_correlated_test.cpp validates the
// source set against closed-form marginals.
//
// One fast body. SegmentedFastSimulator runs a single attempt/recovery
// machine, templated on the world's shape: on the plain shape (a VC
// pattern on a plain System with unit-samplable laws) one fail source,
// one segment, no level-1 checkpoint and no PFS tier are compile-time
// facts. The machine reads its draws and keeps its wall clock through a
// draw source: the stream (threshold-filtered as above), or, on the plain
// shape only, a CRN pool cursor (sim/variate_pool.hpp) walked exactly or,
// under a SIMD tier, in unit space. Every other world refuses a pool
// cursor: its draw sequence interleaves several laws.
//
// One DES body. SegmentedDesSimulator runs a single event machine,
// templated on the same shape; on the plain shape it keeps the pinned
// draw, renewal and tie rules its class comment states.
//
// One plan per run. Everything a simulator only reads — the world with its
// instantiated laws, and the fast interpreter's source rows, thresholds
// and unit laws — is resolved once into a SimulationPlan. A simulator
// constructed from (system, pattern) owns one; the replication driver
// (sim/runner.hpp) resolves one per run, and every chunk's simulator
// borrows it, keeping only its own mutable state (a pool cursor, the
// DES's block and pending set).

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "ayd/core/pattern.hpp"
#include "ayd/core/segmented.hpp"
#include "ayd/model/system.hpp"
#include "ayd/rng/block.hpp"
#include "ayd/rng/stream.hpp"
#include "ayd/sim/pending_set.hpp"
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
/// the segment plan of one pattern. The system type picks the protocol
/// (core::SegmentedProtocol); a VC pattern is the one-segment
/// multi-verification world.
struct SegmentedWorld {
  SegmentedWorld(const model::System& sys, const core::Pattern& pattern);
  SegmentedWorld(const core::SegmentedProtocol& sys,
                 const core::SegmentedPattern& pattern);

  /// Recovery cost of the tier a rollback chain is on.
  [[nodiscard]] double recovery_cost(bool pfs) const {
    return pfs ? pfs_recovery : recovery;
  }
  /// True when a shock strike escalates the chain to the PFS tier.
  [[nodiscard]] bool tiered() const { return pfs_recovery != recovery; }
  [[nodiscard]] bool silent_active() const { return silent->rate() > 0.0; }
  /// Length of a try that starts at segment `from` (0 for a pattern
  /// attempt): the offsets of its verifications and checkpoints summed in
  /// phase order, exactly as the fast interpreter accumulates them.
  [[nodiscard]] double try_window(int from) const;
  [[noreturn]] void throw_diverged() const;

  /// A one-segment VC or multi-verification pattern on a plain System:
  /// at most one fail source, at the System's law, one segment, no
  /// level-1 checkpoint and no PFS tier.
  bool plain = false;
  /// The plain shape on a System a CRN pool can serve (crn_eligible,
  /// sim/variate_pool.hpp), so every active law is unit-samplable: the
  /// only world that reads a pool cursor (or the DES's batched block).
  bool unit_plain = false;
  /// The active (nonzero-rate) sources in draw order, the shock last.
  std::vector<FailSource> fail_sources;
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
  double recovery;               ///< R (the burst buffer's, under a PFS tier)
  double pfs_recovery;           ///< R_pfs = φ·R (== R without a PFS tier)
  double downtime;               ///< D

 private:
  SegmentedWorld(const core::SegmentedProtocol& sys, double period,
                 double procs, int segments);
};

}  // namespace detail

/// The read-only part of the simulators of one (system, pattern): the
/// world, plus the fast interpreter's source rows, CDF thresholds and
/// unit laws. Movable; a borrowing simulator must not outlive it.
class SimulationPlan {
 public:
  /// VC (a one-segment pattern), multi-verification and two-level, as
  /// for the world.
  SimulationPlan(const model::System& sys, const core::Pattern& pattern);
  SimulationPlan(const core::SegmentedProtocol& sys,
                 const core::SegmentedPattern& pattern);

  [[nodiscard]] const detail::SegmentedWorld& world() const { return world_; }

 private:
  friend class SegmentedFastSimulator;
  explicit SimulationPlan(detail::SegmentedWorld world);

  /// How one active source draws: threshold-filtered when unit-samplable,
  /// through sample otherwise.
  struct SourceDraw {
    const model::FailureDistribution* dist = nullptr;  ///< null: inactive
    bool filtered = false;
    bool is_shock = false;
  };
  /// How a pool walk scales a unit variate into an arrival
  /// (segmented.cpp).
  struct UnitLaw {
    enum class Scaling { kLinear, kDivide, kVirtual };
    const model::FailureDistribution* dist = nullptr;  ///< null: inactive
    Scaling scaling = Scaling::kVirtual;
    double factor = 0.0;  ///< scale (kLinear) or rate (kDivide)

    UnitLaw() = default;
    explicit UnitLaw(const model::FailureDistribution* d);
    [[nodiscard]] bool linear() const;
    [[nodiscard]] double arrival(double z) const;
    [[nodiscard]] double bound(double window) const;
  };

  detail::SegmentedWorld world_;
  std::vector<SourceDraw> fail_draws_;  ///< active sources, in draw order
  /// safe_word_threshold of every window a fail draw is compared against,
  /// one row of fail_draws_.size() per window: the try window from each
  /// start segment (one row unless two-level), then R, R_pfs and L.
  std::vector<std::uint64_t> fail_thresholds_;
  std::size_t recovery_row_;  ///< row of R; R_pfs and L follow it
  SourceDraw silent_draw_;
  std::uint64_t silent_threshold_ = 0;  ///< window T/n
  UnitLaw fail_law_, silent_law_;  ///< the unit-plain shape's laws
};

/// Closed-form per-segment sampler: one fresh arrival per source at each
/// renewal point, the earliest strike wins. The default backend.
class SegmentedFastSimulator {
 public:
  /// VC (a one-segment pattern), multi-verification and two-level, on a
  /// plan of its own.
  SegmentedFastSimulator(const model::System& sys,
                         const core::Pattern& pattern)
      : owned_(std::make_unique<const SimulationPlan>(sys, pattern)),
        plan_(owned_.get()) {}
  SegmentedFastSimulator(const core::SegmentedProtocol& sys,
                         const core::SegmentedPattern& pattern)
      : owned_(std::make_unique<const SimulationPlan>(sys, pattern)),
        plan_(owned_.get()) {}
  /// Borrows `plan`, which must outlive the simulator.
  explicit SegmentedFastSimulator(const SimulationPlan& plan) : plan_(&plan) {}

  /// One pattern is the n == 1 replica (merging into zeroed totals is the
  /// identity, bitwise: every counter starts at 0 and wall_time > 0).
  [[nodiscard]] PatternStats simulate_pattern(rng::RngStream& rng) {
    return simulate_replica(rng, 1);
  }
  /// n patterns back to back, stats merged (the replication driver's
  /// loop; equivalent to n simulate_pattern calls, bitwise).
  [[nodiscard]] PatternStats simulate_replica(rng::RngStream& rng,
                                              std::size_t n);

  /// Nothing is prefetched across replicas; exists for the driver.
  void begin_replica() {}
  /// Pool mode (common random numbers): draw unit variates from the
  /// shared pool cursor instead of sampling the stream. The cursor must
  /// be positioned at the replica's sequence start and outlive the
  /// simulation calls; nullptr returns to stream sampling. Accepted only
  /// on the unit-plain shape (util::InvalidArgument otherwise, the one
  /// pool message of require_crn_pool); under the scalar tier, pool-fed
  /// results are bit-identical to stream sampling.
  void set_unit_cursor(UnitVariatePool::Cursor* cursor);

 private:
  using SourceDraw = SimulationPlan::SourceDraw;
  using UnitLaw = SimulationPlan::UnitLaw;

  /// The one attempt/recovery machine over a draw source built from the
  /// plan and `args`; kPlain fixes the unit-plain shape at compile time
  /// (segmented.cpp documents the source interface).
  template <bool kPlain, class Source, class... Args>
  [[nodiscard]] PatternStats run(std::size_t n, Args&... args) const;
  template <bool kPlain>
  struct Stream;     ///< the stream, threshold-filtered
  struct PoolWalk;   ///< what the two CRN pool walks share
  struct ExactPool;  ///< CRN pool, exact arrivals
  struct UnitPool;   ///< CRN pool in unit space (SIMD tier)

  /// Set when the simulator was constructed from (system, pattern).
  std::unique_ptr<const SimulationPlan> owned_;
  const SimulationPlan* plan_;
  /// Non-null in pool (CRN) mode: draws come from the shared sequence.
  UnitVariatePool::Cursor* pool_cursor_ = nullptr;
};

/// Discrete-event reference interpreter: one pending arrival per fail
/// source and one for the current segment's silent source (a PendingSet
/// slot each, plus one for the phase end), renewed by the shared rule.
/// Distributionally identical to SegmentedFastSimulator, plus labelled
/// execution traces: level-1 and final checkpoints both trace as
/// kCheckpoint, both recovery levels as kRecovery.
///
/// Every world but the plain shape draws through sample(), and a renewing
/// arrival at or beyond its renewal window's end is discarded unscheduled,
/// so a boundary tie never strikes (the fast interpreter's strict-<
/// windows).
///
/// The plain shape (a VC pattern on a plain System) keeps the draw
/// sequence tests/sim_bitcompat_test.cpp pins bit-for-bit:
///  * draws: from a CRN pool cursor when one is set (unit-samplable laws
///    only); otherwise, when every active law is unit-samplable, through a
///    batched unit-variate block (rng/block.hpp) that pulls the stream's
///    words in draw order, fingerprints the engine so that a stream switch
///    discards stale prefetch, and is dropped by begin_replica(); otherwise
///    through sample();
///  * renewal: a memoryless fail law keeps its pending arrival across try
///    starts and detection recoveries and draws afresh only after a
///    strike's downtime; other laws renew by the shared rule;
///  * ties: a renewing arrival is discarded only when strictly beyond its
///    window's end. An arrival exactly at T+V+C carries an older id than
///    the verify and checkpoint phase ends, so it pops first and strikes.
class SegmentedDesSimulator {
 public:
  /// On a world of its own.
  SegmentedDesSimulator(const model::System& sys,
                        const core::Pattern& pattern)
      : owned_(std::make_unique<const detail::SegmentedWorld>(sys, pattern)),
        world_(*owned_) {}
  SegmentedDesSimulator(const core::SegmentedProtocol& sys,
                        const core::SegmentedPattern& pattern)
      : owned_(std::make_unique<const detail::SegmentedWorld>(sys, pattern)),
        world_(*owned_) {}
  /// Borrows the world of `plan`, which must outlive the simulator.
  explicit SegmentedDesSimulator(const SimulationPlan& plan)
      : world_(plan.world()) {}

  /// Simulates one pattern to completion. If `trace` is given, appends
  /// labelled segments starting at `start_time`.
  ///
  /// On the plain shape the simulator may prefetch variates from `rng`,
  /// so `rng` can advance past the words actually consumed. Passing a
  /// different stream to a later call is safe (the engine fingerprint
  /// discards the stale prefetch), but interleaving other draws on the
  /// same stream between calls skips the prefetched words.
  [[nodiscard]] PatternStats simulate_pattern(rng::RngStream& rng,
                                              Trace* trace = nullptr,
                                              double start_time = 0.0);
  /// n patterns back to back, stats merged (the replication driver's
  /// loop; equivalent to n simulate_pattern calls, bitwise).
  [[nodiscard]] PatternStats simulate_replica(rng::RngStream& rng,
                                              std::size_t n);

  /// Discards variates prefetched from the current stream; the driver
  /// calls it at every replica switch.
  void begin_replica() { units_.reset(); }
  /// Pool mode (common random numbers): see
  /// SegmentedFastSimulator::set_unit_cursor, with the same acceptance.
  void set_unit_cursor(UnitVariatePool::Cursor* cursor);

 private:
  /// The one event machine, run for n patterns, each starting at
  /// `start_time`; kPlain fixes the plain shape at compile time.
  template <bool kPlain>
  [[nodiscard]] PatternStats run(rng::RngStream& rng, std::size_t n,
                                 Trace* trace, double start_time);
  /// One draw of `dist` on the plain shape: cursor, block or sample().
  [[nodiscard]] double draw_plain(const model::FailureDistribution& dist,
                                  rng::RngStream& rng);

  /// Slots of the pending set: the phase end, the segment's silent
  /// arrival, then fail source j at kFailSlot + j.
  static constexpr std::size_t kPhaseEndSlot = 0;
  static constexpr std::size_t kSilentSlot = 1;
  static constexpr std::size_t kFailSlot = 2;

  /// Set when the simulator was constructed from (system, pattern).
  std::unique_ptr<const detail::SegmentedWorld> owned_;
  const detail::SegmentedWorld& world_;
  /// The plain shape's fail law is memoryless: its arrival is kept.
  bool keep_arrival_ = world_.plain && !world_.fail_sources.empty() &&
                       world_.fail_sources[0].dist->memoryless();
  /// Non-null on the unit-plain shape: the block's unit transform (both
  /// sources are instantiated from one spec, so their unit transform is
  /// identical).
  const model::FailureDistribution* unit_src_ =
      !world_.unit_plain            ? nullptr
      : world_.fail_sources.empty() ? world_.silent.get()
                                    : world_.fail_sources[0].dist.get();
  rng::VariateBlock units_;
  /// Engine state expected on the next call while prefetched variates are
  /// buffered; a mismatch means the caller switched streams (a 256-bit
  /// fingerprint, so a cross-stream collision is not a practical concern).
  std::array<std::uint64_t, 4> expected_state_{};
  /// Non-null in pool (CRN) mode: draws come from the shared sequence.
  UnitVariatePool::Cursor* pool_cursor_ = nullptr;
  PendingSet<> pending_{kFailSlot + world_.fail_sources.size()};
};

}  // namespace ayd::sim
