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

/// Runs replicas [begin, end) of `plan` on one simulator that borrows the
/// plan's read-only part, and writes their outcomes. The simulator's
/// arenas (pending set, batched-variate block) are paid once per chunk,
/// not once per replica. Results are invariant to the chunking because
/// replica i's RNG stream is a pure function of (seed, i).
template <typename Simulator>
void run_replica_range(const ReplicaPlan& plan, std::size_t begin,
                       std::size_t end, ReplicaOutcome* out) {
  Simulator simulator(plan.simulation);
  const ReplicationOptions& opt = plan.options;
  // Fault-free time of the work contained in n patterns, in serial-time
  // units: n·T·S(P) (cf. paper, "Optimization objective").
  const auto n = static_cast<double>(opt.patterns_per_replica);
  const double work = n * plan.period * plan.speedup;

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

/// One run's share of a round: its plan, and the arena its replica i
/// lands in at outcomes[i].
struct RoundRun {
  const ReplicaPlan* plan;
  ReplicaOutcome* outcomes;
};

/// The replica loop of every driver: replicas [first, target) of every
/// run in `runs`, in one parallel_for_chunks call, each chunk running
/// every run on its replicas in turn (so pooled variates are still in
/// cache for all but the first) on the backend of its options. A chunk
/// holds at least kMinPatternsPerTask patterns across the runs, which
/// share patterns_per_replica. A run that throws stops in that chunk while
/// the others go on; the exception re-thrown is the one of the earliest
/// failing run, from its lowest failing chunk, whatever the scheduling.
void run_round(std::span<const RoundRun> runs, std::size_t first,
               std::size_t target, exec::ThreadPool* pool) {
  const std::size_t per_replica =
      runs.front().plan->options.patterns_per_replica * runs.size();
  std::mutex failure_mu;
  std::pair<std::size_t, std::size_t> failed_at{runs.size(), 0};
  std::exception_ptr failure;
  exec::parallel_for_chunks(
      pool, target - first,
      [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = 0; k < runs.size(); ++k) {
          const ReplicaPlan& plan = *runs[k].plan;
          ReplicaOutcome* out = runs[k].outcomes + first + begin;
          try {
            if (plan.options.backend == Backend::kDes) {
              run_replica_range<SegmentedDesSimulator>(plan, first + begin,
                                                       first + end, out);
            } else {
              run_replica_range<SegmentedFastSimulator>(plan, first + begin,
                                                        first + end, out);
            }
          } catch (...) {
            const std::lock_guard<std::mutex> lock(failure_mu);
            if (std::pair(k, begin) < failed_at) {
              failed_at = {k, begin};
              failure = std::current_exception();
            }
          }
        }
      },
      (kMinPatternsPerTask + per_replica - 1) / per_replica);
  if (failure) std::rethrow_exception(failure);
}

/// The option checks every plan makes, with the one CRN pool rule.
void require_replication(const ReplicaPlan& plan,
                         const model::System& sys) {
  const ReplicationOptions& opt = plan.options;
  AYD_REQUIRE(opt.patterns_per_replica >= 1,
              "need at least one pattern per replica");
  const UnitVariatePool* units = opt.shared_units;
  require_crn_pool(units == nullptr ||
                   (plan.simulation.world().unit_plain &&
                    units->seed() == opt.seed &&
                    units->spec() == sys.failure().dist()));
}

/// Deterministic reduction of the outcomes, in replica order, into the
/// result summaries, telemetry and closed form. `student_ci` selects
/// Student-t intervals (adaptive driver) over normal-theory ones (fixed
/// driver).
ReplicationResult reduce_outcomes(const ReplicaPlan& plan,
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
  result.analytic_overhead = plan.analytic_overhead;
  result.analytic_pattern_time = plan.analytic_pattern_time;
  result.total_patterns = static_cast<std::uint64_t>(outcomes.size()) *
                          plan.options.patterns_per_replica;
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

}  // namespace

ReplicaPlan::ReplicaPlan(const model::System& sys,
                         const core::Pattern& pattern,
                         const ReplicationOptions& opt)
    : simulation(sys, pattern),
      options(opt),
      system(&sys),
      period(pattern.period),
      speedup(sys.speedup(pattern.procs)),
      analytic_overhead(core::pattern_overhead(sys, pattern)),
      analytic_pattern_time(core::expected_pattern_time(sys, pattern)) {
  require_replication(*this, sys);
}

ReplicaPlan::ReplicaPlan(const core::SegmentedProtocol& sys,
                         const core::SegmentedPattern& pattern,
                         const ReplicationOptions& opt)
    : simulation(sys, pattern),
      options(opt),
      system(&sys.base()),
      period(pattern.period),
      speedup(sys.base().speedup(pattern.procs)),
      analytic_overhead(core::segmented_overhead(sys, pattern)),
      analytic_pattern_time(core::expected_segmented_time(sys, pattern)) {
  require_replication(*this, sys.base());
}

ReplicationResult replicate(const ReplicaPlan& plan, exec::ThreadPool* pool,
                            ReplicationScratch* scratch) {
  AYD_REQUIRE(plan.options.replicas >= 1, "need at least one replica");
  std::vector<ReplicaOutcome> local;
  std::vector<ReplicaOutcome>& outcomes =
      scratch != nullptr ? scratch->outcomes : local;
  outcomes.resize(plan.options.replicas);
  const RoundRun run{&plan, outcomes.data()};
  run_round({&run, 1}, 0, outcomes.size(), pool);
  return reduce_outcomes(plan, outcomes, /*student_ci=*/false);
}

AdaptiveRun::AdaptiveRun(ReplicaPlan plan, const AdaptiveOptions& adapt,
                         ReplicationScratch* scratch)
    : plan_(std::move(plan)),
      adapt_(adapt),
      scratch_(scratch),
      target_(adapt.min_replicas) {
  AYD_REQUIRE(adapt.min_replicas >= 2,
              "adaptive replication needs min_replicas >= 2 for a CI");
  AYD_REQUIRE(adapt.max_replicas >= adapt.min_replicas,
              "adaptive replication cap below the starting count");
  AYD_REQUIRE(adapt.ci_rel_tol > 0.0 && std::isfinite(adapt.ci_rel_tol),
              "ci_rel_tol must be finite and > 0");
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
    AYD_REQUIRE(run->plan_.system == lead.plan_.system &&
                    run->plan_.options == lead.plan_.options &&
                    run->adapt_ == lead.adapt_ && run->target_ == target &&
                    run->outcomes().size() == first,
                "runs stepped together must share the system, the options "
                "and the round schedule");
  }
  std::vector<RoundRun> round;
  round.reserve(runs.size());
  for (AdaptiveRun* run : runs) {
    run->arena().resize(target);
    round.push_back({&run->plan_, run->arena().data()});
  }
  run_round(round, first, target, pool);
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
      reduce_outcomes(plan_, outcomes(), /*student_ci=*/true);
  result.rounds = rounds_;
  result.ci_converged = converged_;
  return result;
}

}  // namespace ayd::sim
