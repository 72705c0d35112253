#include "ayd/sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "ayd/core/expected_time.hpp"
#include "ayd/core/overhead.hpp"
#include "ayd/sim/segmented.hpp"
#include "ayd/stats/ci.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::sim {

namespace {

/// Round-size multiplier of the adaptive driver (AdaptiveOptions).
constexpr double kGrowth = 1.6;

const model::System& base_system(const model::System& sys) { return sys; }
const model::System& base_system(const core::TwoLevelSystem& sys) {
  return sys.base;
}

/// Runs replicas [begin, end) on one reusable simulator and writes their
/// outcomes. Hoisting the simulator out of the replica loop is what makes
/// replication allocation-free steady-state: the simulator's arenas
/// (pending set, batched-variate block) and distribution instantiations
/// are paid once per chunk, not once per replica. Results are invariant
/// to the chunking because replica i's RNG stream is a pure function of
/// (seed, i).
template <typename Simulator, typename Sys, typename Pat>
void run_replica_range(const Sys& sys, const Pat& pattern,
                       const ReplicationOptions& opt, std::size_t begin,
                       std::size_t end, ReplicaOutcome* out) {
  Simulator simulator(sys, pattern);
  // Fault-free time of the work contained in n patterns, in serial-time
  // units: n·T·S(P) (cf. paper, "Optimization objective").
  const auto n = static_cast<double>(opt.patterns_per_replica);
  const double work =
      n * pattern.period * base_system(sys).speedup(pattern.procs);

  for (std::size_t i = begin; i < end; ++i) {
    simulator.begin_replica();  // drop variates prefetched from stream i-1
    UnitVariatePool::Cursor cursor;  // keep alive through the replica
    if (opt.shared_units != nullptr) {
      cursor = opt.shared_units->cursor(i);
      simulator.set_unit_cursor(&cursor);
    }
    rng::RngStream rng(opt.seed, i);
    const PatternStats totals =
        simulator.simulate_replica(rng, opt.patterns_per_replica);
    if (opt.shared_units != nullptr) simulator.set_unit_cursor(nullptr);
    ReplicaOutcome& o = out[i - begin];
    o.totals = totals;
    o.overhead = totals.wall_time / work;
    o.mean_pattern_time = totals.wall_time / n;
  }
}

/// Runs replicas [first, outcomes.size()) into the tail of `outcomes`
/// on the segmented interpreter of opt.backend (earlier entries are kept —
/// this is what lets the adaptive driver append rounds without
/// re-simulating). Parallel chunks are offset by `first` so replica i
/// still draws substream (seed, i) regardless of how many rounds
/// preceded it.
template <typename Sys, typename Pat>
void run_replicas(const Sys& sys, const Pat& pattern,
                  const ReplicationOptions& opt, exec::ThreadPool* pool,
                  std::vector<ReplicaOutcome>& outcomes, std::size_t first) {
  const std::size_t count = outcomes.size() - first;
  const auto run_chunk = [&](std::size_t begin, std::size_t end) {
    ReplicaOutcome* out = outcomes.data() + first + begin;
    if (opt.backend == Backend::kDes) {
      run_replica_range<SegmentedDesSimulator>(sys, pattern, opt,
                                               first + begin, first + end,
                                               out);
    } else {
      run_replica_range<SegmentedFastSimulator>(sys, pattern, opt,
                                                first + begin, first + end,
                                                out);
    }
  };
  const std::size_t min_chunk =
      (kMinPatternsPerTask + opt.patterns_per_replica - 1) /
      opt.patterns_per_replica;
  exec::parallel_for_chunks(pool, count, run_chunk, min_chunk);
}

/// The option checks every driver shares. Only a plain System on a VC
/// pattern (`pooled`) has a CRN pool mode.
void require_replication(const model::System& sys,
                         const ReplicationOptions& opt, bool pooled) {
  AYD_REQUIRE(opt.patterns_per_replica >= 1,
              "need at least one pattern per replica");
  AYD_REQUIRE(opt.shared_units == nullptr ||
                  (pooled && !sys.extended() &&
                   opt.shared_units->seed() == opt.seed &&
                   opt.shared_units->spec() == sys.failure().dist()),
              "shared_units pool was built for a different (spec, seed) "
              "scenario than this replication (segmented patterns and "
              "extended systems have no CRN pool mode)");
}

/// Deterministic reduction of the outcomes, in replica order, into the
/// result summaries and telemetry (analytic_* are the caller's).
/// `student_ci` selects Student-t intervals (adaptive driver) over
/// normal-theory ones (fixed driver).
ReplicationResult reduce_outcomes(const ReplicationOptions& opt,
                                  const std::vector<ReplicaOutcome>& outcomes,
                                  bool student_ci) {
  stats::RunningStats overhead_stats;
  stats::RunningStats time_stats;
  PatternStats totals;
  for (const ReplicaOutcome& o : outcomes) {
    overhead_stats.add(o.overhead);
    time_stats.add(o.mean_pattern_time);
    totals.merge(o.totals);
  }

  ReplicationResult result;
  if (student_ci) {
    result.overhead = stats::summarize_student(overhead_stats, kCiLevel);
    result.pattern_time = stats::summarize_student(time_stats, kCiLevel);
  } else {
    result.overhead = stats::summarize(overhead_stats, kCiLevel);
    result.pattern_time = stats::summarize(time_stats, kCiLevel);
  }
  result.total_patterns = static_cast<std::uint64_t>(outcomes.size()) *
                          opt.patterns_per_replica;
  const auto n = static_cast<double>(result.total_patterns);
  result.fail_stops_per_pattern =
      static_cast<double>(totals.fail_stop_errors) / n;
  result.silent_detections_per_pattern =
      static_cast<double>(totals.silent_detections) / n;
  result.masked_silent_per_pattern =
      static_cast<double>(totals.masked_silent) / n;
  result.shock_errors_per_pattern =
      static_cast<double>(totals.shock_errors) / n;
  result.attempts_per_pattern = static_cast<double>(totals.attempts) / n;
  return result;
}

/// Fixed-count replication of a segmented pattern on the segmented
/// interpreters; the system type picks the protocol and its closed form.
template <typename Sys>
ReplicationResult simulate_segmented(const Sys& sys,
                                     const core::SegmentedPattern& pattern,
                                     const ReplicationOptions& opt,
                                     exec::ThreadPool* pool) {
  AYD_REQUIRE(opt.replicas >= 1, "need at least one replica");
  require_replication(base_system(sys), opt, /*pooled=*/false);
  core::validate(pattern);
  std::vector<ReplicaOutcome> outcomes(opt.replicas);
  run_replicas(sys, pattern, opt, pool, outcomes, 0);
  ReplicationResult result =
      reduce_outcomes(opt, outcomes, /*student_ci=*/false);
  result.analytic_overhead = core::segmented_overhead(sys, pattern);
  result.analytic_pattern_time = core::expected_segmented_time(sys, pattern);
  return result;
}

}  // namespace

ReplicationResult simulate_overhead(const model::System& sys,
                                    const core::Pattern& pattern,
                                    const ReplicationOptions& opt,
                                    exec::ThreadPool* pool,
                                    ReplicationScratch* scratch) {
  AYD_REQUIRE(opt.replicas >= 1, "need at least one replica");
  require_replication(sys, opt, /*pooled=*/true);
  core::validate(pattern);

  std::vector<ReplicaOutcome> local;
  std::vector<ReplicaOutcome>& outcomes =
      scratch != nullptr ? scratch->outcomes : local;
  outcomes.resize(opt.replicas);
  run_replicas(sys, pattern, opt, pool, outcomes, 0);
  ReplicationResult result =
      reduce_outcomes(opt, outcomes, /*student_ci=*/false);
  result.analytic_overhead = core::pattern_overhead(sys, pattern);
  result.analytic_pattern_time = core::expected_pattern_time(sys, pattern);
  return result;
}

AdaptiveRun::AdaptiveRun(const model::System& sys,
                         const core::Pattern& pattern,
                         const ReplicationOptions& opt,
                         const AdaptiveOptions& adapt,
                         ReplicationScratch* scratch)
    : sys_(&sys),
      pattern_(pattern),
      opt_(opt),
      adapt_(adapt),
      scratch_(scratch),
      target_(adapt.min_replicas) {
  AYD_REQUIRE(adapt.min_replicas >= 2,
              "adaptive replication needs min_replicas >= 2 for a CI");
  AYD_REQUIRE(adapt.max_replicas >= adapt.min_replicas,
              "adaptive replication cap below the starting count");
  AYD_REQUIRE(adapt.ci_rel_tol > 0.0 && std::isfinite(adapt.ci_rel_tol),
              "ci_rel_tol must be finite and > 0");
  require_replication(sys, opt, /*pooled=*/true);
  core::validate(pattern);
  arena().clear();
}

void AdaptiveRun::step(exec::ThreadPool* pool) {
  AYD_REQUIRE(!done_, "adaptive run already finished");
  std::vector<ReplicaOutcome>& outcomes = arena();
  const std::size_t first = outcomes.size();
  outcomes.resize(target_);
  run_replicas(*sys_, pattern_, opt_, pool, outcomes, first);
  ++rounds_;

  // The CI is recomputed over *all* replicas so far (replica order, so
  // the reduction matches a fixed-count run); the next round size
  // depends only on the current one, never on timing.
  stats::RunningStats overhead_stats;
  for (const ReplicaOutcome& o : outcomes) overhead_stats.add(o.overhead);
  const stats::ConfidenceInterval ci =
      stats::mean_ci_student(overhead_stats, kCiLevel);
  if (stats::relative_half_width(ci, overhead_stats.mean()) <=
      adapt_.ci_rel_tol) {
    converged_ = true;
    done_ = true;
    return;
  }
  if (target_ >= adapt_.max_replicas) {
    done_ = true;
    return;
  }
  const auto grown = static_cast<std::size_t>(
      std::ceil(kGrowth * static_cast<double>(target_)));
  target_ = std::min(adapt_.max_replicas, std::max(target_ + 1, grown));
}

ReplicationResult AdaptiveRun::result() const {
  ReplicationResult result =
      reduce_outcomes(opt_, outcomes(), /*student_ci=*/true);
  result.analytic_overhead = core::pattern_overhead(*sys_, pattern_);
  result.analytic_pattern_time =
      core::expected_pattern_time(*sys_, pattern_);
  result.rounds = rounds_;
  result.ci_converged = converged_;
  return result;
}

ReplicationResult simulate_overhead_adaptive(const model::System& sys,
                                             const core::Pattern& pattern,
                                             const ReplicationOptions& opt,
                                             const AdaptiveOptions& adapt,
                                             exec::ThreadPool* pool,
                                             ReplicationScratch* scratch) {
  AdaptiveRun run(sys, pattern, opt, adapt, scratch);
  while (!run.done()) run.step(pool);
  return run.result();
}

ReplicationResult simulate_segmented_overhead(
    const model::System& sys, const core::SegmentedPattern& pattern,
    const ReplicationOptions& opt, exec::ThreadPool* pool) {
  return simulate_segmented(sys, pattern, opt, pool);
}

ReplicationResult simulate_segmented_overhead(
    const core::TwoLevelSystem& sys, const core::SegmentedPattern& pattern,
    const ReplicationOptions& opt, exec::ThreadPool* pool) {
  return simulate_segmented(sys, pattern, opt, pool);
}

}  // namespace ayd::sim
