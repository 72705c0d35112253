#include "ayd/sim/runner.hpp"

#include <algorithm>
#include <cmath>
#include <exception>
#include <mutex>
#include <utility>
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

/// Runs replicas [begin, end) of `pattern` on the segmented interpreter
/// of opt.backend into `out`.
template <typename Sys, typename Pat>
void run_range(const Sys& sys, const Pat& pattern,
               const ReplicationOptions& opt, std::size_t begin,
               std::size_t end, ReplicaOutcome* out) {
  if (opt.backend == Backend::kDes) {
    run_replica_range<SegmentedDesSimulator>(sys, pattern, opt, begin, end,
                                             out);
  } else {
    run_replica_range<SegmentedFastSimulator>(sys, pattern, opt, begin, end,
                                              out);
  }
}

/// Replicas a chunk needs to simulate kMinPatternsPerTask patterns
/// when each replica runs `runs` runs of `patterns_per_replica` patterns.
std::size_t min_chunk(std::size_t patterns_per_replica, std::size_t runs) {
  const std::size_t per_replica = patterns_per_replica * runs;
  return (kMinPatternsPerTask + per_replica - 1) / per_replica;
}

/// Runs replicas [0, outcomes.size()) into `outcomes`, on `pool` when
/// given.
template <typename Sys, typename Pat>
void run_replicas(const Sys& sys, const Pat& pattern,
                  const ReplicationOptions& opt, exec::ThreadPool* pool,
                  std::vector<ReplicaOutcome>& outcomes) {
  exec::parallel_for_chunks(
      pool, outcomes.size(),
      [&](std::size_t begin, std::size_t end) {
        run_range(sys, pattern, opt, begin, end, outcomes.data() + begin);
      },
      min_chunk(opt.patterns_per_replica, 1));
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
  run_replicas(sys, pattern, opt, pool, outcomes);
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
  run_replicas(sys, pattern, opt, pool, outcomes);
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
  AdaptiveRun* const self = this;
  step_together({&self, 1}, pool);
}

void AdaptiveRun::step_together(std::span<AdaptiveRun* const> runs,
                                exec::ThreadPool* pool) {
  AYD_REQUIRE(!runs.empty(), "no adaptive run to step");
  const AdaptiveRun& lead = *runs.front();
  const std::size_t first = lead.outcomes().size();
  const std::size_t target = lead.target_;
  for (const AdaptiveRun* run : runs) {
    AYD_REQUIRE(!run->done_, "adaptive run already finished");
    AYD_REQUIRE(run->sys_ == lead.sys_ && run->opt_ == lead.opt_ &&
                    run->adapt_ == lead.adapt_ && run->target_ == target &&
                    run->outcomes().size() == first,
                "runs stepped together must share the system, the options "
                "and the round schedule");
  }
  for (AdaptiveRun* run : runs) run->arena().resize(target);

  // Each chunk of the round's new replicas runs every run on them in
  // turn, so the replicas' pooled variates are still in cache for all but
  // the first. A run that throws stops in that chunk while the others go
  // on; the exception re-thrown is the one of the earliest failing run in
  // `runs`, from its lowest failing chunk, whatever the scheduling.
  std::mutex failure_mu;
  std::pair<std::size_t, std::size_t> failed_at{runs.size(), 0};
  std::exception_ptr failure;
  exec::parallel_for_chunks(
      pool, target - first,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = 0; k < runs.size(); ++k) {
          AdaptiveRun& run = *runs[k];
          try {
            run_range(*run.sys_, run.pattern_, run.opt_, first + begin,
                      first + end, run.arena().data() + first + begin);
          } catch (...) {
            const std::lock_guard<std::mutex> lock(failure_mu);
            if (std::pair(k, begin) < failed_at) {
              failed_at = {k, begin};
              failure = std::current_exception();
            }
          }
        }
      },
      min_chunk(lead.opt_.patterns_per_replica, runs.size()));
  if (failure) std::rethrow_exception(failure);
  for (AdaptiveRun* run : runs) run->finish_round();
}

void AdaptiveRun::finish_round() {
  ++rounds_;
  // The CI is recomputed over *all* replicas so far (replica order, so
  // the reduction matches a fixed-count run); the next round size
  // depends only on the current one, never on timing.
  const std::vector<ReplicaOutcome>& outcomes = arena();
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
