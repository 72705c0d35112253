// Simulation-driven optimizer: exact closed-form fallback for exponential
// inputs, agreement of the noise-aware search with the analytic optimum
// where the analytic optimum is valid (Weibull k = 1 *is* exponential,
// sampled through the Weibull quantile), determinism, and the expected
// bursty-shape behaviour. All fixed-seed and deterministic.

#include "ayd/core/sim_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <string>
#include <vector>

#include "ayd/core/overhead.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/sim/variate_pool.hpp"
#include "ayd/util/error.hpp"

namespace ayd::core {
namespace {

using model::Scenario;
using model::System;

constexpr double kProcs = 512.0;

SimSearchOptions quick_search() {
  SimSearchOptions opt;
  opt.replication.patterns_per_replica = 60;
  opt.replication.seed = 0x51A0u;
  opt.adaptive.min_replicas = 12;
  opt.adaptive.max_replicas = 512;
  opt.adaptive.ci_rel_tol = 0.04;
  return opt;
}

/// Log periods of a coarse scan centred on `center` (log T) with bracket
/// half-span `span`, as sim_optimal_period lays them out.
std::vector<double> coarse_log_periods(double center, double span) {
  const double dom_lo = std::log(kMinPeriod);
  const double dom_hi = std::log(kMaxPeriod);
  const double c = std::clamp(center, dom_lo, dom_hi);
  const double lo = std::max(dom_lo, c - std::log(span));
  const double hi = std::min(dom_hi, c + std::log(span));
  const double step = (hi - lo) / static_cast<double>(kCoarsePoints - 1);
  std::vector<double> xs(static_cast<std::size_t>(kCoarsePoints));
  for (std::size_t i = 0; i < xs.size(); ++i) {
    xs[i] = lo + step * static_cast<double>(i);
  }
  return xs;
}

TEST(SimOptimalPeriod, ExponentialFallsBackToClosedFormExactly) {
  const System sys = System::from_platform(model::hera(), Scenario::kS3);
  const SimSearchOptions opt = quick_search();
  const SimPeriodOptimum sim = sim_optimal_period(sys, kProcs, opt);
  const PeriodOptimum exact = optimal_period(sys, kProcs);

  EXPECT_TRUE(sim.used_closed_form);
  EXPECT_TRUE(sim.converged);
  EXPECT_DOUBLE_EQ(sim.period, exact.period);
  EXPECT_DOUBLE_EQ(sim.seed_period, exact.period);
  EXPECT_EQ(sim.evaluations, 1);  // one sim, only to attach the CI
  // The attached CI must be consistent with the analytic prediction the
  // exponential model makes at that pattern (loose z-style agreement).
  EXPECT_NEAR(sim.overhead.mean, exact.overhead,
              5.0 * sim.overhead.ci.half_width() + 0.01 * exact.overhead);
}

TEST(SimOptimalPeriod, WeibullK1SearchAgreesWithAnalyticOptimum) {
  // Weibull with k = 1 is the exponential law but is not flagged
  // memoryless, so the full noise-aware search runs — against a ground
  // truth the closed form knows exactly.
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(1.0));
  const SimSearchOptions opt = quick_search();
  const SimPeriodOptimum sim = sim_optimal_period(sys, kProcs, opt);
  const PeriodOptimum exact = optimal_period(sys, kProcs);

  EXPECT_FALSE(sim.used_closed_form);
  EXPECT_TRUE(sim.converged);
  EXPECT_GT(sim.evaluations, 5);
  // The overhead surface is flat near the optimum, so assert optimality
  // where it is meaningful: the *analytic* overhead at the found period
  // must be within 1% of the analytic minimum, and the found period
  // within the bracket the search was told to resolve.
  const double h_at_found = pattern_overhead(sys, {sim.period, kProcs});
  EXPECT_LE(h_at_found, 1.01 * exact.overhead);
  EXPECT_GT(sim.period, exact.period / 4.0);
  EXPECT_LT(sim.period, exact.period * 4.0);
  // And the simulated overhead there must match the analytic prediction
  // within CI-scale noise.
  EXPECT_NEAR(sim.overhead.mean, h_at_found,
              5.0 * sim.overhead.ci.half_width() + 0.01 * h_at_found);
}

TEST(SimOptimalPeriod, DeterministicAcrossRepeatRuns) {
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(0.7));
  const SimPeriodOptimum a = sim_optimal_period(sys, kProcs, quick_search());
  const SimPeriodOptimum b = sim_optimal_period(sys, kProcs, quick_search());
  EXPECT_EQ(a.period, b.period);  // bitwise
  EXPECT_EQ(a.overhead.mean, b.overhead.mean);
  EXPECT_EQ(a.total_replicas, b.total_replicas);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.ci_limited, b.ci_limited);
}

void expect_same_summary(const stats::Summary& a, const stats::Summary& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_EQ(a.mean, b.mean);  // bitwise, as are all the doubles below
  EXPECT_EQ(a.stddev, b.stddev);
  EXPECT_EQ(a.stderr_mean, b.stderr_mean);
  EXPECT_EQ(a.min, b.min);
  EXPECT_EQ(a.max, b.max);
  EXPECT_EQ(a.ci.lo, b.ci.lo);
  EXPECT_EQ(a.ci.hi, b.ci.hi);
  EXPECT_EQ(a.ci.level, b.ci.level);
}

void expect_same_optimum(const SimPeriodOptimum& a, const SimPeriodOptimum& b) {
  EXPECT_EQ(a.period, b.period);
  expect_same_summary(a.overhead, b.overhead);
  EXPECT_EQ(a.seed_period, b.seed_period);
  EXPECT_EQ(a.used_closed_form, b.used_closed_form);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.ci_limited, b.ci_limited);
  EXPECT_EQ(a.ci_converged, b.ci_converged);
  EXPECT_EQ(a.at_boundary, b.at_boundary);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.retired, b.retired);
  EXPECT_EQ(a.total_replicas, b.total_replicas);
}

void expect_same_optimum(const SimAllocationOptimum& a,
                         const SimAllocationOptimum& b) {
  EXPECT_EQ(a.procs, b.procs);
  EXPECT_EQ(a.period, b.period);
  expect_same_summary(a.overhead, b.overhead);
  EXPECT_EQ(a.seed_procs, b.seed_procs);
  EXPECT_EQ(a.used_closed_form, b.used_closed_form);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.ci_converged, b.ci_converged);
  EXPECT_EQ(a.at_boundary, b.at_boundary);
  EXPECT_EQ(a.period_at_boundary, b.period_at_boundary);
  EXPECT_EQ(a.outer_evaluations, b.outer_evaluations);
  EXPECT_EQ(a.total_replicas, b.total_replicas);
}

/// Runs `solve(pool)` without a pool and on pools of 1, 2 and 4 threads;
/// every field of every result must equal the serial one.
template <typename Solve>
void expect_thread_invariant(const Solve& solve) {
  const auto serial = solve(nullptr);
  for (const unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " thread(s)");
    exec::ThreadPool pool(threads);
    expect_same_optimum(serial, solve(&pool));
  }
}

TEST(SimOptimalPeriod, ThreadPoolDoesNotChangeTheOptimum) {
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(0.7));
  expect_thread_invariant([&](exec::ThreadPool* pool) {
    return sim_optimal_period(sys, kProcs, quick_search(), pool);
  });
}

TEST(SimOptimalPeriod, ThreadPoolDoesNotChangeTheOptimumWithLargeRounds) {
  // A first round of 40 x 60 patterns gives a 1- or 2-thread pool a task
  // per worker, so the candidates run one after another with their
  // replica rounds fanned out; on 4 threads it does not, so they run
  // concurrently instead.
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(0.7));
  SimSearchOptions opt = quick_search();
  opt.adaptive.min_replicas = 40;
  expect_thread_invariant([&](exec::ThreadPool* pool) {
    return sim_optimal_period(sys, kProcs, opt, pool);
  });
}

// -- The coarse scan's race ---------------------------------------------

/// The search options of the `ayd optimize --simulate` catalog questions
/// (--runs 16 --patterns 32 --max-reps 256 --ci-rel-tol 0.01).
SimSearchOptions catalog_search(std::uint64_t seed) {
  SimSearchOptions opt;
  opt.replication.patterns_per_replica = 32;
  opt.replication.seed = seed;
  opt.adaptive.min_replicas = 16;
  opt.adaptive.max_replicas = 256;
  opt.adaptive.ci_rel_tol = 0.01;
  return opt;
}

TEST(SimOptimalPeriod, RacedCoarseScanKeepsTheExhaustiveArgmin) {
  // Oracle: every coarse candidate evaluated in full, on a CRN pool the
  // test builds. The race may only drop candidates that cannot win, so
  // the reported optimum must be what the exhaustive scan implies: the
  // exhaustive argmin itself, bit for bit, or a refinement that beats it
  // inside its bracket. Either way the reported summary is the bits of a
  // full evaluation at the reported period.
  const char* platforms[] = {"hera", "atlas"};
  const model::FailureDistSpec laws[] = {
      model::FailureDistSpec::weibull(0.5),
      model::FailureDistSpec::weibull(0.7),
      model::FailureDistSpec::weibull(1.4),
      model::FailureDistSpec::lognormal(1.2)};
  constexpr double kP = 256.0;
  std::uint64_t seed = 0x0AC1E;
  int bursty_retired = 0;
  for (const char* platform : platforms) {
    for (const Scenario scenario : model::all_scenarios()) {
      for (const model::FailureDistSpec& law : laws) {
        const System sys =
            System::from_platform(model::platform_by_name(platform), scenario)
                .with_failure_dist(law);
        const SimSearchOptions opt = catalog_search(++seed);
        SCOPED_TRACE(testing::Message()
                     << platform << " S" << static_cast<int>(scenario) << " "
                     << law.to_string());
        const SimPeriodOptimum raced = sim_optimal_period(sys, kP, opt);
        if (law == laws[0]) bursty_retired += raced.retired;

        sim::UnitVariatePool units(law, opt.replication.seed);
        sim::ReplicationOptions rep = opt.replication;
        rep.shared_units = &units;
        const auto full = [&](double period) {
          return sim::simulate_overhead_adaptive(sys, {period, kP}, rep,
                                                 opt.adaptive)
              .overhead;
        };
        const std::vector<double> xs = coarse_log_periods(
            std::log(raced.seed_period), kColdBracketSpan);
        std::vector<stats::Summary> scan;
        for (const double x : xs) scan.push_back(full(std::exp(x)));
        std::size_t best = 0;
        for (std::size_t i = 1; i < scan.size(); ++i) {
          if (scan[i].mean < scan[best].mean) best = i;
        }

        expect_same_summary(raced.overhead, full(raced.period));
        const auto hit = std::find_if(xs.begin(), xs.end(), [&](double x) {
          return std::exp(x) == raced.period;
        });
        if (hit != xs.end()) {
          EXPECT_EQ(static_cast<std::size_t>(hit - xs.begin()), best);
          expect_same_summary(raced.overhead, scan[best]);
        } else {
          EXPECT_LT(raced.overhead.mean, scan[best].mean);
          constexpr double kInf = std::numeric_limits<double>::infinity();
          const double log_t = std::log(raced.period);
          EXPECT_GT(log_t, best > 0 ? xs[best - 1] : -kInf);
          EXPECT_LT(log_t, best + 1 < xs.size() ? xs[best + 1] : kInf);
        }
      }
    }
  }
  // Weibull 0.5 is the law whose scans retire the most candidates; the
  // oracle must have seen the race act.
  EXPECT_GT(bursty_retired, 0);
}

TEST(SimOptimalPeriod, ThreadPoolDoesNotChangeARacedOptimum) {
  // The race's two phases run concurrently on a pool; a retiring search
  // must still return every field bit for bit.
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(0.5));
  const SimSearchOptions opt = catalog_search(0x0AC1E);
  const SimPeriodOptimum serial = sim_optimal_period(sys, 256.0, opt);
  ASSERT_GT(serial.retired, 0);
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << threads << " thread(s)");
    exec::ThreadPool pool(threads);
    expect_same_optimum(serial, sim_optimal_period(sys, 256.0, opt, &pool));
  }
}

TEST(SimOptimalPeriod, DivergingCandidatesReportTheSmallestPeriod) {
  // Replayed gaps never exceed 1.5x their mean, and the silent stream's
  // mean is 0.28/λf here, so a pattern longer than 0.42/λf never
  // completes. A warm start at 0.2/λf lays the coarse scan out at
  // 0.05 ... 0.8/λf, a factor 4^(1/3) apart, so only the upper two
  // candidates (0.50 and 0.8/λf) diverge (the replay also keeps the
  // search off the CRN pool, which would otherwise store every variate
  // the diverging patterns draw). A one-thread pool runs the largest
  // period first, so it fails first, yet the search reports the smaller
  // one, as a serial ascending scan would. (Each diverging pattern spends
  // its full attempt cap, so this runs one pool only.)
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(
              model::FailureDistSpec::trace_replay({0.5, 1.0, 1.5}));
  SimSearchOptions opt = quick_search();
  opt.warm_start = 0.2 / sys.fail_stop_rate(kProcs);
  const double smallest_diverging = std::exp(
      coarse_log_periods(std::log(opt.warm_start), kWarmBracketSpan)[5]);
  exec::ThreadPool pool(1);
  try {
    (void)sim_optimal_period(sys, kProcs, opt, &pool);
    FAIL() << "no candidate diverged";
  } catch (const util::SimulationDiverged& e) {
    const std::string what = e.what();
    const std::size_t at = what.find("T=");
    ASSERT_NE(at, std::string::npos) << what;
    EXPECT_NEAR(std::stod(what.substr(at + 2)) / smallest_diverging, 1.0,
                1e-4)
        << what;
  }
}

TEST(SimOptimalPeriod, ThreadPoolDoesNotChangeAStaleWarmStartedOptimum) {
  // The hint sits 50x below the optimum, so the search walks out of its
  // bracket through the serial edge expansions.
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(1.0));
  SimSearchOptions warm = quick_search();
  warm.warm_start = optimal_period(sys, kProcs).period / 50.0;
  expect_thread_invariant([&](exec::ThreadPool* pool) {
    return sim_optimal_period(sys, kProcs, warm, pool);
  });
}

TEST(SimOptimalPeriod, ThreadPoolDoesNotChangeTheClosedFormAttach) {
  const System sys = System::from_platform(model::hera(), Scenario::kS3);
  expect_thread_invariant([&](exec::ThreadPool* pool) {
    return sim_optimal_period(sys, kProcs, quick_search(), pool);
  });
}

TEST(SimOptimalPeriod, ForcedSearchOnExponentialStaysNearClosedForm) {
  const System sys = System::from_platform(model::hera(), Scenario::kS3);
  SimSearchOptions opt = quick_search();
  opt.force_search = true;
  const SimPeriodOptimum sim = sim_optimal_period(sys, kProcs, opt);
  const PeriodOptimum exact = optimal_period(sys, kProcs);
  EXPECT_FALSE(sim.used_closed_form);
  const double h_at_found = pattern_overhead(sys, {sim.period, kProcs});
  EXPECT_LE(h_at_found, 1.01 * exact.overhead);
}

TEST(SimOptimalPeriod, BurstyWeibullMovesTheOptimumBelowTheSeed) {
  // k = 0.5 is strongly bursty: failures cluster, so the true optimum
  // checkpoints more often than the exponential formula suggests — and
  // executing the exponential period must not beat the found optimum.
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(0.5));
  SimSearchOptions opt = quick_search();
  opt.adaptive.ci_rel_tol = 0.03;
  const SimPeriodOptimum found = sim_optimal_period(sys, kProcs, opt);
  EXPECT_LT(found.period, found.seed_period);
  const ayd::sim::ReplicationResult at_seed =
      ayd::sim::simulate_overhead_adaptive(
          sys, {found.seed_period, kProcs}, opt.replication, opt.adaptive);
  EXPECT_LE(found.overhead.mean,
            at_seed.overhead.mean + at_seed.overhead.ci.half_width());
}

TEST(SimOptimalPeriod, ReplicationCapSurfacesAsCiNotConverged) {
  // An unreachable CI target with a tight replica cap must not be
  // reported as a met target — the interval is wider than requested.
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(0.7));
  SimSearchOptions opt = quick_search();
  opt.adaptive.min_replicas = 8;
  opt.adaptive.max_replicas = 8;
  opt.adaptive.ci_rel_tol = 1e-9;
  const SimPeriodOptimum sim = sim_optimal_period(sys, kProcs, opt);
  EXPECT_FALSE(sim.ci_converged);
  // And the convergent configuration reports the target as met.
  const SimPeriodOptimum ok = sim_optimal_period(sys, kProcs, quick_search());
  EXPECT_TRUE(ok.ci_converged);
}

TEST(SimOptimalPeriod, RejectsAnInvalidProcessorCount) {
  const System sys = System::from_platform(model::hera(), Scenario::kS3);
  EXPECT_THROW((void)sim_optimal_period(sys, 0.5, quick_search()),
               util::InvalidArgument);
}

TEST(SimOptimalAllocation, ExponentialFallsBackToClosedFormExactly) {
  const System sys = System::from_platform(model::hera(), Scenario::kS3);
  SimAllocationSearchOptions opt;
  opt.period = quick_search();
  const SimAllocationOptimum sim = sim_optimal_allocation(sys, opt);

  AllocationSearchOptions aopt;
  aopt.max_procs = opt.max_procs;
  const AllocationOptimum exact = optimal_allocation(sys, aopt);

  EXPECT_TRUE(sim.used_closed_form);
  EXPECT_DOUBLE_EQ(sim.procs, exact.procs);
  EXPECT_DOUBLE_EQ(sim.period, exact.period);
  EXPECT_EQ(sim.outer_evaluations, 1);
  EXPECT_GE(sim.overhead.count, opt.period.adaptive.min_replicas);
}

TEST(SimOptimalAllocation, WeibullLadderSearchReturnsIntegerAllocation) {
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(0.7));
  SimAllocationSearchOptions opt;
  opt.period = quick_search();
  opt.period.adaptive.min_replicas = 8;
  opt.period.adaptive.max_replicas = 128;
  opt.period.adaptive.ci_rel_tol = 0.08;
  const SimAllocationOptimum sim = sim_optimal_allocation(sys, opt);
  EXPECT_FALSE(sim.used_closed_form);
  // The seed rung and kLadderRungsPerSide on each side.
  EXPECT_EQ(sim.outer_evaluations, 2 * kLadderRungsPerSide + 1);
  EXPECT_GE(sim.procs, 1.0);
  EXPECT_DOUBLE_EQ(sim.procs, std::round(sim.procs));
  EXPECT_GT(sim.period, 0.0);
  EXPECT_GT(sim.overhead.mean, 0.0);
  EXPECT_GT(sim.seed_procs, 0.0);
}

TEST(SimOptimalAllocation, ThreadPoolDoesNotChangeTheOptimum) {
  // The rungs' period searches run concurrently and each one's own
  // candidate scans nest inside a pool worker.
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::lognormal(1.2));
  SimAllocationSearchOptions opt;
  opt.period = quick_search();
  opt.period.adaptive.min_replicas = 8;
  opt.period.adaptive.max_replicas = 128;
  opt.period.adaptive.ci_rel_tol = 0.08;
  expect_thread_invariant([&](exec::ThreadPool* pool) {
    return sim_optimal_allocation(sys, opt, pool);
  });
}

// -- Warm-started search (the online re-planning loop's fast path) -------

TEST(SimOptimalPeriod, WarmStartNearTheOptimumStaysOnTheOptimum) {
  // Weibull k = 1 again: the full search runs against an exact analytic
  // ground truth. A warm start at the known optimum with the narrow
  // bracket must land in the same neighbourhood as the cold search.
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(1.0));
  const PeriodOptimum exact = optimal_period(sys, kProcs);

  SimSearchOptions warm = quick_search();
  warm.warm_start = exact.period;
  const SimPeriodOptimum sim = sim_optimal_period(sys, kProcs, warm);
  EXPECT_TRUE(sim.converged);
  EXPECT_FALSE(sim.used_closed_form);
  EXPECT_EQ(sim.retired, 0);  // only cold scans race
  const double h_at_found = pattern_overhead(sys, {sim.period, kProcs});
  EXPECT_LE(h_at_found, 1.01 * exact.overhead);
  EXPECT_GT(sim.period, exact.period / kWarmBracketSpan);
  EXPECT_LT(sim.period, exact.period * kWarmBracketSpan);
}

TEST(SimOptimalPeriod, StaleWarmStartRecoversThroughEdgeExpansion) {
  // A hint 50x below the true optimum: the narrow warm bracket cannot
  // contain the minimum, so the edge-expansion logic must walk out and
  // still find it. This is the safety net that makes warm starts safe to
  // use on every re-plan.
  const System sys =
      System::from_platform(model::hera(), Scenario::kS3)
          .with_failure_dist(model::FailureDistSpec::weibull(1.0));
  const PeriodOptimum exact = optimal_period(sys, kProcs);

  SimSearchOptions warm = quick_search();
  warm.warm_start = exact.period / 50.0;
  const SimPeriodOptimum sim = sim_optimal_period(sys, kProcs, warm);
  const double h_at_found = pattern_overhead(sys, {sim.period, kProcs});
  EXPECT_LE(h_at_found, 1.02 * exact.overhead);
}

TEST(SimOptimalPeriod, WarmStartIsIgnoredOnTheClosedFormPath) {
  // Memoryless systems take the exact closed form; a (nonsense) warm
  // hint must not perturb it.
  const System sys = System::from_platform(model::hera(), Scenario::kS3);
  SimSearchOptions opt = quick_search();
  opt.warm_start = 17.0;
  const SimPeriodOptimum sim = sim_optimal_period(sys, kProcs, opt);
  const PeriodOptimum exact = optimal_period(sys, kProcs);
  EXPECT_TRUE(sim.used_closed_form);
  EXPECT_DOUBLE_EQ(sim.period, exact.period);
}

}  // namespace
}  // namespace ayd::core
