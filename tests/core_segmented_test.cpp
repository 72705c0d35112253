// Tests of the segmented-pattern model (core/segmented.hpp), run on both
// protocols: reduction to Proposition 1 at n = 1, the error-free wall
// time, the first-order formulas, the closed-form segment plan and the
// exact (T, n) optimum; plus hex-float pins of the values the two
// protocols had as separate modules (tests/data/segmented_pins.csv).

#include "ayd/core/segmented.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>
#include <gtest/gtest.h>

#include "ayd/core/expected_time.hpp"
#include "ayd/core/first_order.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/overhead.hpp"
#include "ayd/math/special.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/util/error.hpp"

namespace ayd::core {
namespace {

using model::CostModel;
using model::FailureModel;
using model::ResilienceCosts;
using model::Scenario;
using model::Speedup;
using model::System;

System make_system(double lambda, double f, double c, double v, double d) {
  ResilienceCosts costs{CostModel::constant(c), CostModel::constant(c),
                        CostModel::constant(v)};
  return System(FailureModel(lambda, f), costs, d, Speedup::amdahl(0.1));
}

/// Multi-verification: a plain System; inner boundaries store nothing
/// and the level-1 cost argument is ignored.
struct MultiVerification {
  static System system(const System& base, const CostModel& /*level1*/) {
    return base;
  }
  static double inner(double /*level1*/) { return 0.0; }
  /// n* = sqrt(λs·C/((λf+λs)·V)) for fail-stop fraction f.
  static double n_star(double f, double c, double v, double /*l*/) {
    return std::sqrt((1.0 - f) * c / v);
  }
};

/// Two-level: a TwoLevelSystem; inner boundaries store L.
struct TwoLevel {
  static TwoLevelSystem system(const System& base, const CostModel& level1) {
    return {base, level1};
  }
  static double inner(double level1) { return level1; }
  /// n* = sqrt(2·λs·(C−L)/(λf·(V+L))) for fail-stop fraction f.
  static double n_star(double f, double c, double v, double l) {
    return std::sqrt(2.0 * (1.0 - f) * (c - l) / (f * (v + l)));
  }
};

template <typename Protocol>
class Segmented : public ::testing::Test {};

struct ProtocolNames {
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, TwoLevel> ? "TwoLevel" : "MultiVerification";
  }
};

using Protocols = ::testing::Types<MultiVerification, TwoLevel>;
TYPED_TEST_SUITE(Segmented, Protocols, ProtocolNames);

TYPED_TEST(Segmented, ReducesToProposition1AtOneSegment) {
  // With n = 1 (and, for two-level, L = R) the protocol is the VC
  // pattern; the exact expectations must agree to rounding.
  const System base = make_system(2e-8, 0.3, 300.0, 20.0, 1800.0);
  const auto sys = TypeParam::system(base, base.costs().recovery);
  for (const double t : {1000.0, 8000.0, 40000.0}) {
    for (const double p : {64.0, 512.0, 4096.0}) {
      const double segmented = expected_segmented_time(sys, {t, p, 1});
      const double reference = expected_pattern_time(base, {t, p});
      EXPECT_NEAR(segmented, reference, 1e-9 * reference)
          << "t=" << t << " p=" << p;
    }
  }
}

TYPED_TEST(Segmented, ErrorFreeWallTimeIsTheFaultFreeCost) {
  const System base = make_system(0.0, 0.0, 120.0, 10.0, 3600.0);
  const auto sys = TypeParam::system(base, CostModel::constant(4.0));
  // n segments: T + n·V + (n−1)·L + C, with L = 0 for multi-verification.
  const double t = 9000.0;
  for (const int n : {1, 3, 8}) {
    const double expected =
        t + n * 10.0 + (n - 1) * TypeParam::inner(4.0) + 120.0;
    EXPECT_NEAR(expected_segmented_time(sys, {t, 64.0, n}), expected, 1e-9)
        << n;
  }
}

TYPED_TEST(Segmented, MoreSegmentsCutSilentRollbackCost) {
  // Silent-only system: deeper segmentation strictly reduces the expected
  // time as long as the extra boundaries stay small relative to the
  // rollback savings.
  const System base = make_system(4e-8, 0.0, 1000.0, 5.0, 0.0);
  const auto sys = TypeParam::system(base, CostModel::constant(5.0));
  const double t = 30000.0;
  const double p = 512.0;
  const double e1 = expected_segmented_time(sys, {t, p, 1});
  const double e4 = expected_segmented_time(sys, {t, p, 4});
  const double e16 = expected_segmented_time(sys, {t, p, 16});
  EXPECT_LT(e4, e1);
  EXPECT_LT(e16, e4);
}

TYPED_TEST(Segmented, ExceedsFaultFreeFloor) {
  const System base = make_system(5e-8, 0.5, 200.0, 15.0, 600.0);
  const auto sys = TypeParam::system(base, base.costs().verification);
  for (const int n : {1, 2, 5, 13}) {
    const double t = 20000.0;
    const double floor =
        t + n * 15.0 + (n - 1) * TypeParam::inner(15.0) + 200.0;
    EXPECT_GE(expected_segmented_time(sys, {t, 256.0, n}), floor) << n;
  }
}

TYPED_TEST(Segmented, OverflowReturnsInfinity) {
  const System base = make_system(1e-3, 0.5, 300.0, 15.0, 3600.0);
  const auto sys = TypeParam::system(base, base.costs().verification);
  EXPECT_TRUE(std::isinf(expected_segmented_time(sys, {1e9, 1e5, 4})));
}

TYPED_TEST(Segmented, RejectsInvalidPatterns) {
  const System base = make_system(1e-8, 0.5, 300.0, 15.0, 3600.0);
  const auto sys = TypeParam::system(base, base.costs().verification);
  EXPECT_THROW((void)expected_segmented_time(sys, {0.0, 64.0, 1}),
               util::InvalidArgument);
  EXPECT_THROW((void)expected_segmented_time(sys, {100.0, 0.5, 1}),
               util::InvalidArgument);
  EXPECT_THROW((void)expected_segmented_time(sys, {100.0, 64.0, 0}),
               util::InvalidArgument);
}

TYPED_TEST(Segmented, FirstOrderMatchesExactForSmallRates) {
  // Relative error of the first-order overhead must shrink ~linearly in λ.
  const System base = make_system(1e-7, 0.4, 400.0, 25.0, 0.0);
  const auto hot = TypeParam::system(base, base.costs().verification);
  const auto cold =
      TypeParam::system(base.with_lambda(1e-9), base.costs().verification);
  const SegmentedPattern pat{20000.0, 128.0, 4};
  const auto rel_error = [&](const auto& sys) {
    return std::abs(first_order_segmented_overhead(sys, pat) -
                    segmented_overhead(sys, pat)) /
           segmented_overhead(sys, pat);
  };
  const double err_hot = rel_error(hot);
  const double err_cold = rel_error(cold);
  EXPECT_LT(err_cold, err_hot / 20.0);
  EXPECT_LT(err_cold, 1e-3);
}

TYPED_TEST(Segmented, FirstOrderPeriodIsStationary) {
  const System base = make_system(3e-8, 0.25, 600.0, 30.0, 3600.0);
  const auto sys = TypeParam::system(base, base.costs().verification);
  for (const int n : {1, 3, 9}) {
    const double t_star = optimal_segmented_period(sys, 512.0, n);
    const double h_star =
        first_order_segmented_overhead(sys, {t_star, 512.0, n});
    for (const double factor : {0.6, 0.9, 1.1, 1.7}) {
      EXPECT_GT(
          first_order_segmented_overhead(sys, {t_star * factor, 512.0, n}),
          h_star)
          << "n=" << n << " factor=" << factor;
    }
  }
}

TYPED_TEST(Segmented, FirstOrderPeriodIsTheorem1AtOneSegment) {
  // With n = 1 and a free level-1 checkpoint the first-order period is
  // sqrt((V+C)/(λf/2+λs)), Theorem 1's.
  const System base = make_system(2e-8, 0.3, 300.0, 20.0, 3600.0);
  const auto sys = TypeParam::system(base, CostModel::zero());
  EXPECT_NEAR(optimal_segmented_period(sys, 512.0, 1),
              optimal_period_first_order(base, 512.0), 1e-9);
}

TYPED_TEST(Segmented, FirstOrderPeriodTracksExactOptimum) {
  const System base = make_system(1e-8, 0.3, 800.0, 12.0, 3600.0);
  const auto sys = TypeParam::system(base, base.costs().verification);
  const double p = 1024.0;
  for (const int n : {1, 2, 4, 8, 16, 32}) {
    // Exact overhead at the first-order period is within 1% of the best
    // exact overhead over a fine local scan.
    const double t_fo = optimal_segmented_period(sys, p, n);
    const double h_fo = segmented_overhead(sys, {t_fo, p, n});
    double h_best = h_fo;
    for (double f = 0.5; f <= 2.0; f *= 1.02) {
      h_best = std::min(h_best, segmented_overhead(sys, {t_fo * f, p, n}));
    }
    EXPECT_LT((h_fo - h_best) / h_best, 1e-2) << "n=" << n;
  }
}

TYPED_TEST(Segmented, ClosedFormSegmentCount) {
  const System base = make_system(2e-8, 0.2, 1000.0, 10.0, 3600.0);
  const auto sys = TypeParam::system(base, CostModel::constant(10.0));
  const SegmentedPlan plan = optimal_segmented_plan(sys, 512.0);
  const double n_star = TypeParam::n_star(0.2, 1000.0, 10.0, 10.0);
  EXPECT_NEAR(plan.segments_continuous, n_star, 1e-9);
  // Rounded to the better first-order neighbour.
  EXPECT_GE(plan.segments, static_cast<int>(std::floor(n_star)));
  EXPECT_LE(plan.segments, static_cast<int>(std::floor(n_star)) + 1);
  EXPECT_EQ(plan.period, optimal_segmented_period(sys, 512.0, plan.segments));
}

TYPED_TEST(Segmented, MoreSilentErrorsMeanMoreSegments) {
  const auto balanced = TypeParam::system(
      make_system(2e-8, 0.5, 1000.0, 10.0, 3600.0), CostModel::constant(10.0));
  const auto silent_heavy =
      TypeParam::system(make_system(2e-8, 0.05, 1000.0, 10.0, 3600.0),
                        CostModel::constant(10.0));
  EXPECT_GT(optimal_segmented_plan(silent_heavy, 512.0).segments,
            optimal_segmented_plan(balanced, 512.0).segments);
}

TYPED_TEST(Segmented, PlanRequiresABoundedSegmentCount) {
  // Error-free, or with free boundaries (V = L = 0), n* is unbounded.
  const auto error_free = TypeParam::system(
      make_system(0.0, 0.5, 1000.0, 10.0, 3600.0), CostModel::constant(10.0));
  EXPECT_THROW((void)optimal_segmented_plan(error_free, 512.0),
               util::InvalidArgument);
  const auto free_boundaries = TypeParam::system(
      make_system(2e-8, 0.5, 1000.0, 0.0, 3600.0), CostModel::zero());
  EXPECT_THROW((void)optimal_segmented_plan(free_boundaries, 512.0),
               util::InvalidArgument);
}

TEST(SegmentedPlan, TwoLevelRequiresFailStopErrors) {
  // Without fail-stops a two-level silent rollback costs one segment at
  // any n; multi-verification still rolls back to the pattern start.
  const System base = make_system(2e-8, 0.0, 1000.0, 10.0, 3600.0);
  EXPECT_THROW((void)optimal_segmented_plan(
                   TwoLevelSystem{base, CostModel::constant(10.0)}, 512.0),
               util::InvalidArgument);
  EXPECT_NEAR(optimal_segmented_plan(base, 512.0).segments_continuous,
              std::sqrt(1000.0 / 10.0), 1e-9);
}

TYPED_TEST(Segmented, OptimumAgreesWithFirstOrderPlanAtModerateRates) {
  const model::Platform hera = model::hera();
  const System base = System::from_platform(hera, Scenario::kS3);
  const auto sys = TypeParam::system(base, base.costs().verification);
  const SegmentedPlan plan = optimal_segmented_plan(sys, hera.measured_procs);
  const SegmentedOptimum opt =
      optimal_segmented_pattern(sys, hera.measured_procs);
  EXPECT_TRUE(opt.converged);
  EXPECT_NEAR(opt.segments, plan.segments, 2.0);
  EXPECT_NEAR(opt.period, plan.period, 0.25 * plan.period);
  // The exact optimum can only be at or below the first-order prediction
  // evaluated exactly.
  EXPECT_LE(opt.overhead,
            segmented_overhead(
                sys, {plan.period, hera.measured_procs, plan.segments}) +
                1e-12);
}

TYPED_TEST(Segmented, OptimumBeatsSingleVerificationWhenSilentDominates) {
  // On a silent-dominated platform the optimal segmented pattern has a
  // strictly lower overhead than the optimal VC pattern at the same
  // allocation.
  const model::Platform atlas = model::atlas();  // s = 0.9375
  const System base = System::from_platform(atlas, Scenario::kS3);
  const auto sys = TypeParam::system(base, base.costs().verification);
  const double p = atlas.measured_procs;
  const SegmentedOptimum best = optimal_segmented_pattern(sys, p);
  EXPECT_GT(best.segments, 1);
  EXPECT_LT(best.overhead, optimal_overhead_fixed_procs(base, p));
}

TYPED_TEST(Segmented, OptimumWithoutAFiniteOverheadIsStillAPattern) {
  // At P = 1e9 no n has a finite exact overhead. The scan reports n = 1 at
  // the period search's finite last point, unconverged, and that pattern
  // validates (a period of 0 would hide the cause behind a validation
  // error).
  const System base =
      System::from_platform(model::hera(), Scenario::kS3);
  const auto sys = TypeParam::system(base, base.costs().verification);
  const double p = 1e9;
  ASSERT_TRUE(std::isfinite(optimal_period(base, p).period));
  const SegmentedOptimum best = optimal_segmented_pattern(sys, p);
  EXPECT_EQ(best.segments, 1);
  EXPECT_TRUE(std::isfinite(best.period));
  EXPECT_GT(best.period, 0.0);
  EXPECT_FALSE(best.converged);
  EXPECT_NO_THROW(validate(SegmentedPattern{best.period, p, 1}));
  EXPECT_NO_THROW((void)segmented_overhead(sys, {best.period, p, 1}));
}

// -- Pins of the separate-module values ------------------------------------

std::vector<std::string> split(const std::string& line) {
  std::vector<std::string> fields;
  std::stringstream ss(line);
  std::string field;
  while (std::getline(ss, field, ',')) fields.push_back(field);
  return fields;
}

double hex(const std::string& s) { return std::strtod(s.c_str(), nullptr); }

std::string show(double x) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", x);
  return buf;
}

/// Checks one pin line against the protocol's system.
template <typename Sys>
void check_pin(const Sys& sys, bool bitwise_time,
               const std::vector<std::string>& f) {
  const double p = hex(f[4]);
  if (f[0] == "time") {
    const SegmentedPattern pat{hex(f[5]), p, std::stoi(f[6])};
    const double exact = expected_segmented_time(sys, pat);
    // Multi-verification's recursion is re-associated: within 1e-15.
    if (bitwise_time) {
      EXPECT_EQ(show(exact), show(hex(f[7])));
    } else {
      EXPECT_LE(math::rel_diff(exact, hex(f[7])), 1e-15)
          << show(exact) << " vs " << f[7];
    }
    EXPECT_EQ(show(first_order_segmented_overhead(sys, pat)), show(hex(f[8])));
    EXPECT_EQ(show(optimal_segmented_period(sys, p, pat.segments)),
              show(hex(f[9])));
  } else {
    const SegmentedPlan plan = optimal_segmented_plan(sys, p);
    EXPECT_EQ(plan.segments, std::stoi(f[5]));
    EXPECT_EQ(show(plan.period), show(hex(f[6])));
    const SegmentedOptimum opt = optimal_segmented_pattern(sys, p);
    EXPECT_EQ(opt.segments, std::stoi(f[7]));
    EXPECT_LE(math::rel_diff(opt.period, hex(f[8])), 1e-5);
    EXPECT_LE(math::rel_diff(opt.overhead, hex(f[9])), 1e-10);
  }
}

TEST(SegmentedPins, MatchTheSeparateModules) {
  std::ifstream in(std::string(AYD_TEST_DATA_DIR) + "/segmented_pins.csv");
  ASSERT_TRUE(in.good()) << "missing segmented_pins.csv";
  std::string line;
  int checked = 0;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::vector<std::string> f = split(line);
    ASSERT_EQ(f.size(), 10u) << line;
    SCOPED_TRACE(line);
    const System sys = System::from_platform(
        model::platform_by_name(f[2]),
        static_cast<Scenario>(std::stoi(f[3])));
    if (f[1] == "multi") {
      check_pin(sys, /*bitwise_time=*/false, f);
    } else {
      ASSERT_EQ(f[1], "two-level");
      check_pin(TwoLevelSystem::with_memory_level1(sys),
                /*bitwise_time=*/true, f);
    }
    ++checked;
  }
  EXPECT_EQ(checked, 576);
}

}  // namespace
}  // namespace ayd::core
