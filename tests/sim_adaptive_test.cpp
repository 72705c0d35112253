// Adaptive replication driver: determinism (the replica *count*, not just
// the estimate, is a pure function of the inputs), tolerance compliance,
// and equivalence with a fixed-count run at the final count.

#include "ayd/sim/runner.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/rng/simd.hpp"
#include "ayd/sim/variate_pool.hpp"
#include "ayd/stats/ci.hpp"
#include "ayd/util/error.hpp"

namespace ayd::sim {
namespace {

using model::Scenario;
using model::System;

System weibull_system() {
  return System::from_platform(model::hera(), Scenario::kS3)
      .with_failure_dist(model::FailureDistSpec::weibull(0.7));
}

ReplicationOptions quick_replication() {
  ReplicationOptions opt;
  opt.patterns_per_replica = 40;
  opt.seed = 0xADA77ULL;
  return opt;
}

AdaptiveOptions quick_adaptive() {
  AdaptiveOptions adapt;
  adapt.ci_rel_tol = 0.05;
  adapt.min_replicas = 8;
  adapt.max_replicas = 2048;
  return adapt;
}

const core::Pattern kPattern{6000.0, 512.0};

/// A driver input: the VC pattern, or a segmented one of `segments`
/// segments, on `sys` (two-level when `two_level` is set).
struct DriverCase {
  std::string label;
  System sys;
  int segments = 0;  ///< 0: the VC pattern
  std::optional<core::TwoLevelSystem> two_level{};

  [[nodiscard]] ReplicaPlan plan(const core::Pattern& pattern,
                                 const ReplicationOptions& opt) const {
    if (segments == 0) return {sys, pattern, opt};
    const core::SegmentedPattern segmented{pattern.period, pattern.procs,
                                           segments};
    if (two_level.has_value()) return {*two_level, segmented, opt};
    return {sys, segmented, opt};
  }
  /// Only the VC pattern on a plain System reads a CRN pool.
  [[nodiscard]] bool poolable() const {
    return segments == 0 && crn_eligible(sys);
  }
};

/// Every pair the drivers take, at fixed seeds: the VC pattern, and the
/// multi-verification (n = 4), two-level (n = 8) and correlated-shock
/// (rho = 0.3) worlds, all on the Weibull system.
const std::vector<DriverCase>& driver_cases() {
  static const std::vector<DriverCase> cases = [] {
    const System sys = weibull_system();
    std::vector<DriverCase> c;
    c.push_back({"vc", sys});
    c.push_back({"multi n=4", sys, 4});
    c.push_back({"two-level n=8", sys, 8,
                 core::TwoLevelSystem::with_memory_level1(sys)});
    c.push_back({"shock rho=0.3", sys.with_shock({0.3})});
    return c;
  }();
  return cases;
}

/// The adaptive driver stepped to its end on `plan`.
ReplicationResult run_adaptive(ReplicaPlan plan, const AdaptiveOptions& adapt,
                               exec::ThreadPool* pool = nullptr,
                               ReplicationScratch* scratch = nullptr) {
  AdaptiveRun run(std::move(plan), adapt, scratch);
  while (!run.done()) run.step(pool);
  return run.result();
}

TEST(AdaptiveReplication, SameSeedAndToleranceGiveBitIdenticalRuns) {
  const System sys = weibull_system();
  const ReplicationResult a = simulate_overhead_adaptive(
      sys, kPattern, quick_replication(), quick_adaptive());
  const ReplicationResult b = simulate_overhead_adaptive(
      sys, kPattern, quick_replication(), quick_adaptive());
  EXPECT_EQ(a.overhead.count, b.overhead.count);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.overhead.mean, b.overhead.mean);        // bitwise
  EXPECT_EQ(a.overhead.stddev, b.overhead.stddev);    // bitwise
  EXPECT_EQ(a.overhead.ci.lo, b.overhead.ci.lo);
  EXPECT_EQ(a.overhead.ci.hi, b.overhead.ci.hi);
}

TEST(AdaptiveReplication, ThreadCountDoesNotChangeTheResult) {
  exec::ThreadPool pool(3);
  for (const DriverCase& c : driver_cases()) {
    SCOPED_TRACE(c.label);
    const ReplicationResult serial = run_adaptive(
        c.plan(kPattern, quick_replication()), quick_adaptive());
    ReplicationScratch scratch;
    const ReplicationResult parallel =
        run_adaptive(c.plan(kPattern, quick_replication()), quick_adaptive(),
                     &pool, &scratch);
    EXPECT_EQ(serial.overhead.count, parallel.overhead.count);
    EXPECT_EQ(serial.overhead.mean, parallel.overhead.mean);  // bitwise
    EXPECT_EQ(serial.rounds, parallel.rounds);
  }
}

TEST(AdaptiveReplication, ConvergedRunsRespectTheRelativeTolerance) {
  const System sys = weibull_system();
  const AdaptiveOptions adapt = quick_adaptive();
  const ReplicationResult res = simulate_overhead_adaptive(
      sys, kPattern, quick_replication(), adapt);
  ASSERT_TRUE(res.ci_converged);
  EXPECT_LE(stats::relative_half_width(res.overhead.ci, res.overhead.mean),
            adapt.ci_rel_tol);
  EXPECT_GE(res.overhead.count, adapt.min_replicas);
  EXPECT_LE(res.overhead.count, adapt.max_replicas);
}

TEST(AdaptiveReplication, TighterToleranceNeedsMoreReplicas) {
  const System sys = weibull_system();
  AdaptiveOptions loose = quick_adaptive();
  loose.ci_rel_tol = 0.10;
  AdaptiveOptions tight = quick_adaptive();
  tight.ci_rel_tol = 0.02;
  const ReplicationResult l = simulate_overhead_adaptive(
      sys, kPattern, quick_replication(), loose);
  const ReplicationResult t = simulate_overhead_adaptive(
      sys, kPattern, quick_replication(), tight);
  EXPECT_LT(l.overhead.count, t.overhead.count);
  EXPECT_TRUE(t.ci_converged);
}

TEST(AdaptiveReplication, AgreesWithFixedCountRunAtTheFinalCount) {
  // Replicas are appended across rounds from substreams (seed, i), so
  // the adaptive estimate must equal a fixed run at the final count bit
  // for bit (the interval differs by construction: t vs normal theory).
  for (const DriverCase& c : driver_cases()) {
    SCOPED_TRACE(c.label);
    const ReplicationResult adaptive = run_adaptive(
        c.plan(kPattern, quick_replication()), quick_adaptive());
    ReplicationOptions fixed = quick_replication();
    fixed.replicas = adaptive.overhead.count;
    const ReplicationResult reference = replicate(c.plan(kPattern, fixed));
    EXPECT_EQ(adaptive.overhead.mean, reference.overhead.mean);  // bitwise
    EXPECT_EQ(adaptive.overhead.stddev, reference.overhead.stddev);
    EXPECT_EQ(adaptive.total_patterns, reference.total_patterns);
    EXPECT_GT(adaptive.overhead.ci.half_width(),
              reference.overhead.ci.half_width());  // t wider than z
  }
}

TEST(AdaptiveReplication, CapIsReportedAsNotConverged) {
  const System sys = weibull_system();
  AdaptiveOptions capped = quick_adaptive();
  capped.ci_rel_tol = 1e-9;  // unreachable
  capped.min_replicas = 4;
  capped.max_replicas = 16;
  const ReplicationResult res = simulate_overhead_adaptive(
      sys, kPattern, quick_replication(), capped);
  EXPECT_FALSE(res.ci_converged);
  EXPECT_EQ(res.overhead.count, 16u);
  EXPECT_GT(res.rounds, 1);
}

TEST(AdaptiveReplication, FixedDriverReportsVacuousConvergence) {
  const System sys = weibull_system();
  ReplicationOptions opt = quick_replication();
  opt.replicas = 8;
  const ReplicationResult res = simulate_overhead(sys, kPattern, opt);
  EXPECT_TRUE(res.ci_converged);
  EXPECT_EQ(res.rounds, 1);
}

TEST(AdaptiveReplication, RejectsInvalidOptions) {
  const System sys = weibull_system();
  AdaptiveOptions bad = quick_adaptive();
  bad.min_replicas = 1;
  EXPECT_THROW((void)simulate_overhead_adaptive(sys, kPattern,
                                                quick_replication(), bad),
               util::InvalidArgument);
  bad = quick_adaptive();
  bad.max_replicas = 4;
  bad.min_replicas = 8;
  EXPECT_THROW((void)simulate_overhead_adaptive(sys, kPattern,
                                                quick_replication(), bad),
               util::InvalidArgument);
}

void expect_same_run(const ReplicationResult& a, const ReplicationResult& b) {
  EXPECT_EQ(a.overhead.count, b.overhead.count);
  EXPECT_EQ(a.overhead.mean, b.overhead.mean);  // bitwise, as below
  EXPECT_EQ(a.overhead.stddev, b.overhead.stddev);
  EXPECT_EQ(a.overhead.stderr_mean, b.overhead.stderr_mean);
  EXPECT_EQ(a.overhead.min, b.overhead.min);
  EXPECT_EQ(a.overhead.max, b.overhead.max);
  EXPECT_EQ(a.overhead.ci.lo, b.overhead.ci.lo);
  EXPECT_EQ(a.overhead.ci.hi, b.overhead.ci.hi);
  EXPECT_EQ(a.pattern_time.mean, b.pattern_time.mean);
  EXPECT_EQ(a.total_patterns, b.total_patterns);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.ci_converged, b.ci_converged);
}

TEST(AdaptiveRun, SteppingRoundByRoundMatchesTheDriver) {
  // The optimizer's race steps several runs a round at a time, pausing
  // them in between: interleaved or straight through, with or without a
  // CRN pool, a run ends on the bits of simulate_overhead_adaptive under
  // either SIMD tier (the pool's transforms are tier-dispatched), on every
  // driver input (only the VC pattern takes a pool).
  const core::Pattern other{2.0 * kPattern.period, kPattern.procs};
  AdaptiveOptions adapt = quick_adaptive();
  adapt.ci_rel_tol = 0.01;  // several rounds
  std::vector<rng::simd::Tier> tiers = {rng::simd::Tier::kScalar};
  if (rng::simd::avx2_available()) tiers.push_back(rng::simd::Tier::kAvx2);
  for (const rng::simd::Tier tier : tiers) {
    rng::simd::force_tier(tier);
    for (const DriverCase& c : driver_cases()) {
      const System& sys = c.sys;
      for (const bool pooled : {false, true}) {
        if (pooled && !c.poolable()) continue;
        SCOPED_TRACE(testing::Message()
                     << rng::simd::tier_name(tier) << " " << c.label
                     << (pooled ? " pooled" : " stream"));
        // Separate pools, so the stepped runs grow theirs in another order.
        ReplicationOptions opt = quick_replication();
        ReplicationOptions stepped = quick_replication();
        UnitVariatePool units(sys.failure().dist(), opt.seed);
        UnitVariatePool stepped_units(sys.failure().dist(), opt.seed);
        if (pooled) {
          opt.shared_units = &units;
          stepped.shared_units = &stepped_units;
        }
        const ReplicationResult straight =
            c.segments == 0
                ? simulate_overhead_adaptive(sys, kPattern, opt, adapt)
                : run_adaptive(c.plan(kPattern, opt), adapt);
        const ReplicationResult straight_other =
            run_adaptive(c.plan(other, opt), adapt);
        EXPECT_GT(straight.rounds, 2);

        AdaptiveRun a(c.plan(kPattern, stepped), adapt);
        AdaptiveRun b(c.plan(other, stepped), adapt);
        exec::ThreadPool pool(3);
        int rounds = 0;
        while (!a.done()) {
          a.step(rounds % 2 == 0 ? nullptr : &pool);
          ++rounds;
          EXPECT_EQ(a.result().rounds, rounds);
          EXPECT_EQ(a.outcomes().size(), a.result().overhead.count);
          if (!b.done()) b.step();
        }
        while (!b.done()) b.step(&pool);
        expect_same_run(a.result(), straight);
        expect_same_run(b.result(), straight_other);
      }
    }
  }
  rng::simd::clear_forced_tier();
}

TEST(AdaptiveRun, ScratchHoldsTheOutcomesAndMovesWithTheRun) {
  const System sys = weibull_system();
  ReplicationScratch scratch;
  AdaptiveRun first(sys, kPattern, quick_replication(), quick_adaptive(),
                    &scratch);
  first.step();
  AdaptiveRun run = std::move(first);
  EXPECT_EQ(&run.outcomes(), &scratch.outcomes);
  while (!run.done()) run.step();
  expect_same_run(run.result(),
                  simulate_overhead_adaptive(sys, kPattern,
                                             quick_replication(),
                                             quick_adaptive()));
  EXPECT_THROW(run.step(), util::InvalidArgument);
}

TEST(AdaptiveRun, SteppingTogetherMatchesSoloRuns) {
  // The simulated search steps its candidates together: every run ends on
  // the bits of stepping it alone, outcome by outcome, on either backend,
  // with the runs sharing one CRN pool or sampling their own streams, on
  // one worker or four, on every driver input (only the VC pattern takes
  // a pool). Each round of K runs holds K times a solo round's patterns,
  // so the later rounds are split across the pool.
  AdaptiveOptions adapt = quick_adaptive();
  adapt.ci_rel_tol = 0.02;  // several rounds, large enough to split
  const std::vector<core::Pattern> patterns = {{3000.0, 512.0},
                                               {6000.0, 512.0},
                                               {12000.0, 512.0},
                                               {24000.0, 512.0}};
  for (const DriverCase& c : driver_cases()) {
    const System& sys = c.sys;
    for (const Backend backend : {Backend::kFast, Backend::kDes}) {
      for (const bool pooled : {false, true}) {
        if (pooled && !c.poolable()) continue;
        for (const unsigned threads : {1u, 4u}) {
          SCOPED_TRACE(testing::Message()
                       << c.label << " "
                       << (backend == Backend::kDes ? "des" : "fast")
                       << (pooled ? " pooled " : " stream ") << threads);
          ReplicationOptions solo_opt = quick_replication();
          ReplicationOptions together_opt = quick_replication();
          solo_opt.backend = backend;
          together_opt.backend = backend;
          UnitVariatePool solo_units(sys.failure().dist(), solo_opt.seed);
          UnitVariatePool together_units(sys.failure().dist(),
                                         solo_opt.seed);
          if (pooled) {
            solo_opt.shared_units = &solo_units;
            together_opt.shared_units = &together_units;
          }
          std::vector<AdaptiveRun> solo;
          std::vector<AdaptiveRun> together;
          for (const core::Pattern& pattern : patterns) {
            solo.emplace_back(c.plan(pattern, solo_opt), adapt);
            while (!solo.back().done()) solo.back().step();
            together.emplace_back(c.plan(pattern, together_opt), adapt);
          }
          exec::ThreadPool pool(threads);
          std::vector<AdaptiveRun*> live;
          for (AdaptiveRun& run : together) live.push_back(&run);
          while (!live.empty()) {
            AdaptiveRun::step_together(live, &pool);
            std::erase_if(live,
                          [](const AdaptiveRun* r) { return r->done(); });
          }
          for (std::size_t k = 0; k < patterns.size(); ++k) {
            const std::vector<ReplicaOutcome>& a = together[k].outcomes();
            const std::vector<ReplicaOutcome>& b = solo[k].outcomes();
            ASSERT_EQ(a.size(), b.size()) << "run " << k;
            for (std::size_t i = 0; i < a.size(); ++i) {
              EXPECT_EQ(a[i].overhead, b[i].overhead) << k << "/" << i;
              EXPECT_EQ(a[i].mean_pattern_time, b[i].mean_pattern_time);
              EXPECT_EQ(a[i].totals.wall_time, b[i].totals.wall_time);
              EXPECT_EQ(a[i].totals.attempts, b[i].totals.attempts);
              EXPECT_EQ(a[i].totals.fail_stop_errors,
                        b[i].totals.fail_stop_errors);
              EXPECT_EQ(a[i].totals.silent_detections,
                        b[i].totals.silent_detections);
            }
            expect_same_run(together[k].result(), solo[k].result());
          }
          EXPECT_GT(solo.back().result().rounds, 2);
        }
      }
    }
  }
}

TEST(AdaptiveRun, SteppingTogetherRefusesRunsThatDoNotShareASchedule) {
  const System sys = weibull_system();
  const core::Pattern other{2.0 * kPattern.period, kPattern.procs};
  const auto refused = [](AdaptiveRun& a, AdaptiveRun& b) {
    std::vector<AdaptiveRun*> runs = {&a, &b};
    EXPECT_THROW(AdaptiveRun::step_together(runs), util::InvalidArgument);
  };
  {  // one round ahead
    AdaptiveRun a(sys, kPattern, quick_replication(), quick_adaptive());
    AdaptiveRun b(sys, other, quick_replication(), quick_adaptive());
    a.step();
    refused(a, b);
  }
  {  // another first round
    AdaptiveOptions larger = quick_adaptive();
    larger.min_replicas = 12;
    AdaptiveRun a(sys, kPattern, quick_replication(), quick_adaptive());
    AdaptiveRun b(sys, other, quick_replication(), larger);
    refused(a, b);
  }
  {  // another seed
    ReplicationOptions reseeded = quick_replication();
    reseeded.seed += 1;
    AdaptiveRun a(sys, kPattern, quick_replication(), quick_adaptive());
    AdaptiveRun b(sys, other, reseeded, quick_adaptive());
    refused(a, b);
  }
  {  // another system
    const System twin = weibull_system();
    AdaptiveRun a(sys, kPattern, quick_replication(), quick_adaptive());
    AdaptiveRun b(twin, other, quick_replication(), quick_adaptive());
    refused(a, b);
  }
  EXPECT_THROW(AdaptiveRun::step_together({}), util::InvalidArgument);
}

TEST(AdaptiveRun, RefusesACrnPoolItCannotRead) {
  // A pool handed to a segmented or extended run is refused when the run
  // is resolved, before any replica runs, with the one pool message that
  // a simulator's cursor refusal and a pool built for another seed share.
  const System sys = weibull_system();
  ReplicationOptions opt = quick_replication();
  UnitVariatePool units(sys.failure().dist(), opt.seed);
  opt.shared_units = &units;
  const auto message = [](const auto& make) {
    try {
      make();
    } catch (const util::InvalidArgument& e) {
      return std::string(e.what());
    }
    ADD_FAILURE() << "not refused";
    return std::string();
  };
  const std::string reference = message([&] {
    SegmentedFastSimulator simulator(sys, core::SegmentedPattern{6000.0,
                                                                 512.0, 4});
    UnitVariatePool::Cursor cursor = units.cursor(0);
    simulator.set_unit_cursor(&cursor);
  });
  EXPECT_FALSE(reference.empty());
  for (const DriverCase& c : driver_cases()) {
    if (c.poolable()) continue;
    SCOPED_TRACE(c.label);
    EXPECT_EQ(message([&] { AdaptiveRun run(c.plan(kPattern, opt),
                                            quick_adaptive()); }),
              reference);
    EXPECT_EQ(message([&] { (void)replicate(c.plan(kPattern, opt)); }),
              reference);
  }
  ReplicationOptions reseeded = opt;
  reseeded.seed += 1;
  EXPECT_EQ(message([&] {
              AdaptiveRun run(sys, kPattern, reseeded, quick_adaptive());
            }),
            reference);
  EXPECT_NO_THROW(AdaptiveRun(sys, kPattern, opt, quick_adaptive()));
}

}  // namespace
}  // namespace ayd::sim
