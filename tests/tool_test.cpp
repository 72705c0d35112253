// End-to-end tests of the `ayd` command-line tool, driven through
// tool::run_tool with captured streams (the binary in apps/ is a thin
// wrapper around exactly this entry point).

#include "ayd/tool/tool.hpp"

#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "ayd/io/json_parse.hpp"
#include "ayd/rng/simd.hpp"
#include "ayd/service/server.hpp"
#include "ayd/tool/commands.hpp"
#include "ayd/util/error.hpp"

namespace ayd::tool {
namespace {

struct ToolRun {
  int code = 0;
  std::string out;
  std::string err;
};

ToolRun run(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_tool(args, out, err);
  return {code, out.str(), err.str()};
}

bool contains(const std::string& haystack, const std::string& needle) {
  return haystack.find(needle) != std::string::npos;
}

// -- Dispatch and help ---------------------------------------------------

TEST(ToolDispatch, NoArgumentsPrintsUsageAndFails) {
  const ToolRun r = run({});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.out, "usage: ayd"));
}

TEST(ToolDispatch, HelpSucceeds) {
  for (const std::string arg : {"help", "--help", "-h"}) {
    const ToolRun r = run({arg});
    EXPECT_EQ(r.code, 0) << arg;
    EXPECT_TRUE(contains(r.out, "commands:")) << arg;
    EXPECT_TRUE(contains(r.out, "optimize")) << arg;
  }
}

TEST(ToolDispatch, VersionPrintsSemver) {
  const ToolRun r = run({"--version"});
  EXPECT_EQ(r.code, 0);
  EXPECT_TRUE(contains(r.out, "ayd 1."));
}

TEST(ToolDispatch, UnknownCommandFailsWithMessage) {
  const ToolRun r = run({"frobnicate"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "unknown command"));
  EXPECT_TRUE(r.out.empty());
}

TEST(ToolDispatch, EveryCommandHasWorkingHelp) {
  for (const std::string cmd : {"platforms", "optimize", "simulate", "sweep",
                                "plan", "protocols", "serve", "call"}) {
    const ToolRun r = run({cmd, "--help"});
    EXPECT_EQ(r.code, 0) << cmd;
    EXPECT_TRUE(contains(r.out, "--help")) << cmd;
  }
}

TEST(ToolDispatch, UnknownOptionIsAnError) {
  const ToolRun r = run({"optimize", "--no-such-option=3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "error:"));
}

// -- platforms -----------------------------------------------------------

TEST(ToolPlatforms, ListsAllFourPresets) {
  const ToolRun r = run({"platforms"});
  ASSERT_EQ(r.code, 0) << r.err;
  for (const std::string name : {"Hera", "Atlas", "Coastal", "Coastal SSD"}) {
    EXPECT_TRUE(contains(r.out, name)) << name;
  }
  // Table II numbers survive round-trip formatting.
  EXPECT_TRUE(contains(r.out, "1.69e-08"));
  EXPECT_TRUE(contains(r.out, "2500"));
}

TEST(ToolPlatforms, ScenarioFlagPrintsCostModels) {
  const ToolRun r = run({"platforms", "--scenarios"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "0.5859*P"));  // Hera scenario 1 fit
  EXPECT_TRUE(contains(r.out, "C_P = R_P"));
}

// -- optimize ------------------------------------------------------------

TEST(ToolOptimize, HeraScenario1MatchesKnownOptimum) {
  const ToolRun r = run({"optimize", "--platform=hera", "--scenario=1"});
  ASSERT_EQ(r.code, 0) << r.err;
  // Figure 2 values: P* (FO) ~ 219, T* (FO) ~ 6239, H ~ 0.108-0.109.
  EXPECT_TRUE(contains(r.out, "218.9"));
  EXPECT_TRUE(contains(r.out, "6239"));
  EXPECT_TRUE(contains(r.out, "Theorem 2"));
}

TEST(ToolOptimize, Scenario6HasNoFirstOrderRow) {
  const ToolRun r = run({"optimize", "--platform=hera", "--scenario=6"});
  ASSERT_EQ(r.code, 0) << r.err;
  // First-order row shows placeholders; the numerical row is real.
  EXPECT_TRUE(contains(r.out, "first-order (Thm 2/3)"));
  EXPECT_TRUE(contains(r.out, "numerical"));
  EXPECT_TRUE(contains(r.out, "no first-order") ||
              contains(r.out, "note:"));
}

TEST(ToolOptimize, FixedProcsUsesTheorem1) {
  const ToolRun r =
      run({"optimize", "--platform=hera", "--scenario=3", "--procs=512"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "Theorem 1"));
  EXPECT_TRUE(contains(r.out, "P fixed at 512"));
  // T* = sqrt((V+C)/(lf/2+ls)) = 6240.9... for Hera/s3 at P=512.
  EXPECT_TRUE(contains(r.out, "6240"));
}

TEST(ToolOptimize, CustomSystemFullySpecified) {
  const ToolRun r = run({"optimize", "--platform=custom", "--lambda=1e-8",
                         "--fail-stop-fraction=0.5", "--ckpt-const=200",
                         "--verif-const=20", "--alpha=0.05"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "C_P = R_P = 200"));
  EXPECT_TRUE(contains(r.out, "Theorem 3"));  // constant-cost case
}

TEST(ToolOptimize, CustomWithoutLambdaFails) {
  const ToolRun r =
      run({"optimize", "--platform=custom", "--ckpt-const=100"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "--lambda"));
}

TEST(ToolOptimize, CustomWithoutCostsFails) {
  const ToolRun r = run({"optimize", "--platform=custom", "--lambda=1e-8",
                         "--fail-stop-fraction=0.3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "ckpt"));
}

TEST(ToolOptimize, CostOverrideOnPreset) {
  // Override just the checkpoint cost on top of the Hera preset: the
  // verification cost must still come from the scenario resolution.
  const ToolRun r = run({"optimize", "--platform=hera", "--scenario=3",
                         "--ckpt-const=600"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "C_P = R_P = 600"));
  EXPECT_TRUE(contains(r.out, "V_P = 15.4"));
}

TEST(ToolOptimize, CostOverrideReplacesTheWholeModel) {
  // Passing any --ckpt-* coefficient replaces the preset's whole
  // checkpoint model (unset coefficients become zero), it does not merge:
  // Hera scenario 1 has C = 0.5859*P; overriding with --ckpt-const alone
  // must drop the linear term.
  const ToolRun r = run({"optimize", "--platform=hera", "--scenario=1",
                         "--ckpt-const=250"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "C_P = R_P = 250"));
  EXPECT_FALSE(contains(r.out, "0.5859"));
}

TEST(ToolOptimize, LambdaOverrideOnPreset) {
  const ToolRun r = run({"optimize", "--platform=hera", "--scenario=1",
                         "--lambda=1e-10"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "1e-10"));
  // Lower rate -> more processors than the stock Hera optimum (~207).
  EXPECT_TRUE(contains(r.out, "Theorem 2"));
}

TEST(ToolOptimize, GustafsonProfileRunsNumerically) {
  const ToolRun r = run({"optimize", "--platform=hera", "--scenario=3",
                         "--profile=gustafson", "--max-procs=1e5"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "gustafson"));
  // Gustafson is not Amdahl-family: no closed form, numerical row only.
  EXPECT_TRUE(contains(r.out, "numerical"));
}

TEST(ToolOptimize, UnknownPlatformFails) {
  const ToolRun r = run({"optimize", "--platform=k-computer"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "unknown platform"));
}

TEST(ToolOptimize, UnknownProfileFails) {
  const ToolRun r = run({"optimize", "--profile=magic"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "unknown profile"));
}

TEST(ToolOptimize, JsonRecordIsWellFormedJoint) {
  const ToolRun r =
      run({"optimize", "--platform=hera", "--scenario=1", "--json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "\"first_order\""));
  EXPECT_TRUE(contains(r.out, "\"numerical\""));
  EXPECT_TRUE(contains(r.out, "\"has_optimum\": true"));
  EXPECT_TRUE(contains(r.out, "\"lambda_ind\""));
  // No human-readable table in JSON mode.
  EXPECT_FALSE(contains(r.out, "Solution"));
}

TEST(ToolOptimize, JsonRecordFixedProcsHasAllThreeSolutions) {
  const ToolRun r = run({"optimize", "--platform=hera", "--scenario=3",
                         "--procs=512", "--json"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "\"higher_order\""));
  EXPECT_TRUE(contains(r.out, "\"procs\": 512"));
}

// -- --failure-dist parsing ----------------------------------------------

TEST(ToolFailureDist, ParsesSpecWithRateOverrides) {
  // The mtbf/lambda entries work with and without shape parameters.
  const ParsedFailureDist bare = parse_failure_dist("exponential,mtbf=2e9");
  EXPECT_TRUE(bare.spec.memoryless());
  ASSERT_TRUE(bare.lambda_override.has_value());
  EXPECT_DOUBLE_EQ(*bare.lambda_override, 0.5e-9);

  const ParsedFailureDist shaped =
      parse_failure_dist("weibull:k=0.7,mtbf=2e9");
  EXPECT_EQ(shaped.spec, model::FailureDistSpec::weibull(0.7));
  ASSERT_TRUE(shaped.lambda_override.has_value());
  EXPECT_DOUBLE_EQ(*shaped.lambda_override, 0.5e-9);

  const ParsedFailureDist direct =
      parse_failure_dist("lognormal:sigma=1.2,lambda=3e-9");
  EXPECT_EQ(direct.spec, model::FailureDistSpec::lognormal(1.2));
  ASSERT_TRUE(direct.lambda_override.has_value());
  EXPECT_DOUBLE_EQ(*direct.lambda_override, 3e-9);

  EXPECT_FALSE(parse_failure_dist("exponential").lambda_override);
  EXPECT_THROW((void)parse_failure_dist("weibull:k=0.7,mtbf=zero"),
               util::CliError);
  EXPECT_THROW((void)parse_failure_dist("trace:"), util::CliError);
}

TEST(ToolFailureDist, TraceAcceptsTrailingRateOverride) {
  const std::string path = ::testing::TempDir() + "/ayd_trace_mtbf.csv";
  {
    std::ofstream log(path);
    log << "gap_seconds\n100\n200\n300\n";
  }
  const ParsedFailureDist parsed =
      parse_failure_dist("trace:" + path + ",mtbf=2e9");
  EXPECT_EQ(parsed.spec.kind(), model::FailureDistKind::kTraceReplay);
  EXPECT_EQ(parsed.spec.trace_gaps().size(), 3u);
  EXPECT_EQ(parsed.spec.trace_source(), path);
  ASSERT_TRUE(parsed.lambda_override.has_value());
  EXPECT_DOUBLE_EQ(*parsed.lambda_override, 0.5e-9);
  std::remove(path.c_str());
}

TEST(ToolFailureDist, SimulateAcceptsWeibullDist) {
  const ToolRun r =
      run({"simulate", "--platform=hera", "--scenario=3", "--procs=256",
           "--runs=8", "--patterns=10", "--failure-dist=weibull:k=0.7"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "weibull:k=0.7 inter-arrivals"));
  EXPECT_TRUE(contains(r.out, "drift caused by weibull:k=0.7"));
}

TEST(ToolFailureDist, RejectsUnknownDistribution) {
  const ToolRun r =
      run({"optimize", "--platform=hera", "--failure-dist=gaussian"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "bad failure distribution"));
}

// -- simulate ------------------------------------------------------------

TEST(ToolSimulate, AgreesWithAnalyticPrediction) {
  const ToolRun r =
      run({"simulate", "--platform=hera", "--scenario=3", "--procs=512",
           "--runs=40", "--patterns=60", "--seed=7"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "execution overhead"));
  EXPECT_TRUE(contains(r.out, "agreement: z ="));
  EXPECT_TRUE(contains(r.out, "fast sampler"));
}

TEST(ToolSimulate, DesBackendSelectable) {
  const ToolRun r =
      run({"simulate", "--platform=hera", "--scenario=3", "--procs=256",
           "--runs=10", "--patterns=20", "--des"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "DES engine"));
}

TEST(ToolSimulate, ExplicitPatternIsEchoed) {
  const ToolRun r =
      run({"simulate", "--platform=atlas", "--scenario=1", "--procs=1024",
           "--period=5000", "--runs=10", "--patterns=20"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "T = 5000"));
  EXPECT_TRUE(contains(r.out, "P = 1024"));
}

TEST(ToolSimulate, DeterministicForSameSeed) {
  const std::vector<std::string> args = {
      "simulate", "--platform=hera", "--scenario=1", "--procs=128",
      "--runs=12", "--patterns=30", "--seed=99"};
  const ToolRun a = run(args);
  const ToolRun b = run(args);
  ASSERT_EQ(a.code, 0);
  EXPECT_EQ(a.out, b.out);
}

TEST(ToolSimulate, SeedChangesTheSample) {
  std::vector<std::string> args = {
      "simulate", "--platform=hera", "--scenario=1", "--procs=128",
      "--runs=12", "--patterns=30", "--seed=1"};
  const ToolRun a = run(args);
  args.back() = "--seed=2";
  const ToolRun b = run(args);
  EXPECT_NE(a.out, b.out);
}

// -- sweep ---------------------------------------------------------------

TEST(ToolSweep, LambdaSweepShowsScalingLaw) {
  const ToolRun r =
      run({"sweep", "--var=lambda", "--from=1e-10", "--to=1e-8",
           "--points=3", "--platform=hera", "--scenario=1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "1e-10"));
  EXPECT_TRUE(contains(r.out, "1e-08"));
  EXPECT_TRUE(contains(r.out, "P* (FO)"));
}

TEST(ToolSweep, ProcsSweepUsesFixedAllocationMode) {
  const ToolRun r =
      run({"sweep", "--var=procs", "--from=200", "--to=800", "--points=3",
           "--platform=hera", "--scenario=3", "--linear"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "200"));
  EXPECT_TRUE(contains(r.out, "800"));
}

TEST(ToolSweep, AlphaSweepHandsOffToNumericalAtAlphaEdge) {
  const ToolRun r =
      run({"sweep", "--var=alpha", "--from=1e-4", "--to=1e-1", "--points=4",
           "--platform=hera", "--scenario=3"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "0.0001"));
}

TEST(ToolSweep, DowntimeSweepIsLinear) {
  const ToolRun r =
      run({"sweep", "--var=downtime", "--from=0", "--to=10800", "--points=3",
           "--platform=hera", "--scenario=1"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "5400"));  // linear midpoint, not geometric
}

TEST(ToolSweep, CsvDumpRoundTrips) {
  const std::string path = ::testing::TempDir() + "/ayd_sweep_test.csv";
  const ToolRun r =
      run({"sweep", "--var=lambda", "--from=1e-10", "--to=1e-9", "--points=2",
           "--platform=hera", "--scenario=1", "--csv=" + path});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, path));
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_TRUE(contains(header, "overhead_opt"));
}

TEST(ToolSweep, RejectsBadRange) {
  const ToolRun r = run({"sweep", "--var=lambda", "--from=1e-8",
                         "--to=1e-10", "--points=3"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "error:"));
}

TEST(ToolSweep, RejectsUnknownVariable) {
  const ToolRun r = run({"sweep", "--var=temperature"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "unknown sweep variable"));
}

TEST(ToolSweep, RejectsSinglePointGrid) {
  const ToolRun r = run({"sweep", "--var=lambda", "--from=1e-10",
                         "--to=1e-9", "--points=1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "two points"));
}

// -- the simulated search's fixed shape -----------------------------------

// `ayd optimize --simulate --json` records under the scalar variate tier,
// pinned byte for byte: the search's fixed shape (the constants of
// core/optimizer.hpp, core/sim_optimizer.hpp and sim/runner.hpp) decides
// every candidate, replica count and interval, so a change to any of
// them shows here.
std::string scalar_tier_record(const std::vector<std::string>& args) {
  rng::simd::force_tier(rng::simd::Tier::kScalar);
  const ToolRun r = run(args);
  rng::simd::clear_forced_tier();
  EXPECT_EQ(r.code, 0) << r.err;
  return r.out;
}

TEST(ToolOptimize, SimulatedFixedProcsRecordIsPinned) {
  // The docs/service.md worked request.
  EXPECT_EQ(scalar_tier_record({"optimize", "--json", "--simulate",
                                "--platform=hera", "--scenario=3",
                                "--failure-dist=weibull:k=0.7",
                                "--procs=512", "--runs=8", "--patterns=20",
                                "--max-reps=32", "--ci-rel-tol=0.05",
                                "--threads=1"}),
            R"json({
  "system": {
    "lambda_ind": 1.6899999999999999e-08,
    "fail_stop_fraction": 0.21879999999999999,
    "downtime": 3600,
    "profile": "amdahl(alpha=0.1)",
    "failure_dist": "weibull:k=0.7",
    "checkpoint": "300",
    "verification": "15.4"
  },
  "procs": 512,
  "first_order": {
    "period": 6397.5128415017962,
    "overhead": 0.1130336379560594
  },
  "higher_order": {
    "period": 6188.9738802812335,
    "overhead": 0.1130307484753646
  },
  "numerical": {
    "period": 6240.9437448291656,
    "overhead": 0.11303037743385434,
    "at_boundary": false
  },
  "simulated": {
    "period": 6240.9437448291656,
    "overhead": 0.12950402699089078,
    "overhead_ci_lo": 0.12434301210798053,
    "overhead_ci_hi": 0.13466504187380104,
    "replicas": 32,
    "total_replicas": 218,
    "used_closed_form": false,
    "converged": true,
    "ci_converged": true,
    "ci_limited": true,
    "at_boundary": false
  }
}
)json");
}

TEST(ToolOptimize, SimulatedJointRecordIsPinned) {
  EXPECT_EQ(scalar_tier_record({"optimize", "--json", "--simulate",
                                "--platform=hera", "--scenario=3",
                                "--failure-dist=weibull:k=0.7", "--runs=4",
                                "--patterns=16", "--max-reps=16",
                                "--ci-rel-tol=0.05", "--threads=1"}),
            R"json({
  "system": {
    "lambda_ind": 1.6899999999999999e-08,
    "fail_stop_fraction": 0.21879999999999999,
    "downtime": 3600,
    "profile": "amdahl(alpha=0.1)",
    "failure_dist": "weibull:k=0.7",
    "checkpoint": "300",
    "verification": "15.4"
  },
  "first_order": {
    "has_optimum": true,
    "procs": 257.44510864913156,
    "period": 9022.0208075484534,
    "overhead": 0.11048767255345214,
    "note": "Theorem 3 (constant checkpoint+verification cost): P* = T* = Θ(λ^{-1/3})"
  },
  "numerical": {
    "procs": 237,
    "period": 9245.9358790787301,
    "overhead": 0.11133239454087708,
    "at_boundary": false
  },
  "simulated": {
    "procs": 158,
    "period": 5606.8393526297768,
    "overhead": 0.12027172244750403,
    "overhead_ci_lo": 0.11543242279169523,
    "overhead_ci_hi": 0.12511102210331285,
    "replicas": 12,
    "total_replicas": 892,
    "used_closed_form": false,
    "converged": true,
    "ci_converged": true,
    "ci_limited": false,
    "at_boundary": false
  }
}
)json");
}

// -- replication and grid values -------------------------------------------

TEST(ToolReplication, BadValuesRefusedBeforeAnyOutput) {
  // Each is refused naming the option before anything is printed, not by
  // a library precondition (which quotes a source path) after the system
  // block.
  const std::vector<std::pair<std::vector<std::string>, std::string>> cases = {
      {{"simulate", "--runs=0"}, "--runs"},
      {{"simulate", "--patterns=0"}, "--patterns"},
      {{"protocols", "--runs=0"}, "--runs"},
      {{"protocols", "--patterns=0"}, "--patterns"},
      {{"sweep", "--simulate", "--runs=0"}, "--runs"},
      {{"sweep", "--simulate", "--patterns=0"}, "--patterns"},
      {{"optimize", "--simulate", "--failure-dist=weibull:k=0.7",
        "--runs=0"},
       "--runs"},
      {{"optimize", "--simulate", "--failure-dist=weibull:k=0.7",
        "--patterns=0"},
       "--patterns"},
      {{"simulate", "--period=0"}, "--period"},
      {{"simulate", "--period=-5"}, "--period"},
      {{"simulate", "--period=nan"}, "--period"},
      {{"sweep", "--points=1"}, "--points"},
  };
  for (const auto& [args, name] : cases) {
    const ToolRun r = run(args);
    const std::string cmd = args[0] + " " + args.back();
    EXPECT_EQ(r.code, 1) << cmd;
    EXPECT_TRUE(contains(r.err, name)) << cmd << ": " << r.err;
    EXPECT_FALSE(contains(r.err, "precondition")) << cmd << ": " << r.err;
    EXPECT_TRUE(r.out.empty()) << cmd << ": " << r.out;
  }
}

TEST(ToolReplication, SimulateRefusesASingleRun) {
  // One replica has no CI: it would print "±0" and an agreement z of
  // order 1e298.
  const ToolRun r = run({"simulate", "--runs", "1", "--patterns", "5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "needs --runs >= 2")) << r.err;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(ToolReplication, ProtocolsRefusesASingleRun) {
  const ToolRun r = run({"protocols", "--runs", "1"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "needs --runs >= 2")) << r.err;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(ToolReplication, SimulatedSweepRefusesASingleRun) {
  const ToolRun r = run({"sweep", "--simulate", "--points", "2", "--runs",
                         "1", "--patterns", "5"});
  EXPECT_EQ(r.code, 1);
  EXPECT_TRUE(contains(r.err, "needs --runs >= 2")) << r.err;
  EXPECT_TRUE(r.out.empty()) << r.out;
}

TEST(ToolSweep, EmptyRangeRefusedBeforeAnyOutput) {
  for (const auto& [from, to] :
       {std::pair{"1", "1"}, std::pair{"2", "1"}, std::pair{"nan", "1"}}) {
    const ToolRun r =
        run({"sweep", "--points", "3", "--from", from, "--to", to});
    EXPECT_EQ(r.code, 1) << from << ".." << to;
    EXPECT_TRUE(contains(r.err, "--to must be greater than --from"))
        << r.err;
    EXPECT_FALSE(contains(r.err, "precondition")) << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
}

TEST(ToolSweep, NonPositiveLogAxisStartRefusedBeforeAnyOutput) {
  for (const char* from : {"0", "-1e-9"}) {
    const ToolRun r =
        run({"sweep", "--points", "3", "--from", from, "--to", "1e-9"});
    EXPECT_EQ(r.code, 1) << from;
    EXPECT_TRUE(contains(r.err, "--from must be > 0")) << r.err;
    EXPECT_FALSE(contains(r.err, "precondition")) << r.err;
    EXPECT_TRUE(r.out.empty()) << r.out;
  }
  // A linear axis may start at zero.
  EXPECT_EQ(run({"sweep", "--points", "3", "--from", "0", "--to", "60",
                 "--var", "downtime"})
                .code,
            0);
}

// -- processor counts ----------------------------------------------------

TEST(ToolProcs, InvalidProcsRefusedBeforeAnyOutput) {
  for (const std::string cmd : {"optimize", "simulate", "protocols"}) {
    for (const std::string value : {"0", "-5", "nan"}) {
      const ToolRun r = run({cmd, "--platform=hera", "--procs=" + value});
      EXPECT_EQ(r.code, 1) << cmd << " --procs=" << value;
      EXPECT_TRUE(contains(r.err, "--procs")) << cmd << ": " << r.err;
      EXPECT_TRUE(r.out.empty()) << cmd << ": " << r.out;
    }
  }
}

TEST(ToolProcs, InvalidMaxProcsRefusedBeforeAnyOutput) {
  // The search runs over [1, max-procs], so 1 itself is refused too.
  for (const std::string cmd : {"optimize", "plan", "sweep"}) {
    for (const std::string value : {"0", "0.5", "1", "nan"}) {
      const ToolRun r =
          run({cmd, "--platform=hera", "--max-procs=" + value});
      EXPECT_EQ(r.code, 1) << cmd << " --max-procs=" << value;
      EXPECT_TRUE(contains(r.err, "--max-procs")) << cmd << ": " << r.err;
      EXPECT_TRUE(r.out.empty()) << cmd << ": " << r.out;
    }
  }
}

// -- simulation options without a simulation ------------------------------

TEST(ToolSimulationOptions, RefusedWhenNothingIsSimulated) {
  // Each row's option tunes a simulation that does not run, so it must
  // fail and name the option and its companion.
  struct Row {
    std::vector<std::string> args;
    std::string option;
  };
  const std::vector<std::string> optimize = {"optimize", "--platform=hera",
                                             "--scenario=1"};
  const std::vector<std::string> sweep = {"sweep", "--var=lambda",
                                          "--from=1e-10", "--to=1e-9",
                                          "--points=2"};
  const std::vector<Row> rows = {
      {{"--des"}, "--des"},
      {{"--runs", "7"}, "--runs"},
      {{"--patterns", "7"}, "--patterns"},
      {{"--seed", "5"}, "--seed"},
      {{"--ci-rel-tol", "0.5"}, "--ci-rel-tol"},
      {{"--max-reps", "9"}, "--max-reps"},
      {{"--threads", "3"}, "--threads"},
  };
  for (const Row& row : rows) {
    std::vector<std::string> args = optimize;
    args.insert(args.end(), row.args.begin(), row.args.end());
    const ToolRun r = run(args);
    EXPECT_EQ(r.code, 1) << "optimize " << row.option;
    EXPECT_TRUE(contains(r.err, row.option + " requires --simulate"))
        << "optimize " << row.option << ": " << r.err;
    args.push_back("--simulate");
    args.insert(args.end(), {"--procs=512", "--runs=4", "--patterns=8",
                             "--max-reps=8", "--threads=1"});
    // With --simulate the same option is accepted (a later duplicate of
    // --runs etc. overrides the row's value, which is fine here).
    EXPECT_EQ(run(args).code, 0) << "optimize --simulate " << row.option;
  }
  const std::vector<Row> sweep_rows = {
      {{"--des"}, "--des"},
      {{"--crn"}, "--crn"},
      {{"--runs", "7"}, "--runs"},
      {{"--patterns", "9"}, "--patterns"},
      {{"--seed", "5"}, "--seed"},
  };
  for (const Row& row : sweep_rows) {
    std::vector<std::string> args = sweep;
    args.insert(args.end(), row.args.begin(), row.args.end());
    const ToolRun r = run(args);
    EXPECT_EQ(r.code, 1) << "sweep " << row.option;
    EXPECT_TRUE(contains(r.err, row.option + " requires --simulate"))
        << "sweep " << row.option << ": " << r.err;
    args.insert(args.end(), {"--simulate", "--runs=4", "--patterns=8",
                             "--threads=1"});
    EXPECT_EQ(run(args).code, 0) << "sweep --simulate " << row.option;
  }
  // A shape variable implies the simulation, so it takes the options.
  EXPECT_EQ(run({"sweep", "--var=weibull-k", "--from=0.7", "--to=1.5",
                 "--points=2", "--des", "--runs=4", "--patterns=8",
                 "--threads=1"})
                .code,
            0);

  // The service's optimize op resolves through the same options.
  service::PlanningService service({/*threads=*/1});
  const io::JsonValue reply = io::parse_json(service.handle_line(
      R"({"op":"optimize","id":1,"platform":"hera","scenario":1,"des":true})"));
  EXPECT_FALSE(reply.at("ok").as_bool());
  EXPECT_NE(reply.at("error").at("message").as_string().find(
                "--des requires --simulate"),
            std::string::npos);
}

// -- protocols -----------------------------------------------------------

TEST(ToolProtocols, ComparesAllThreeProtocols) {
  const ToolRun r = run({"protocols", "--platform=atlas", "--scenario=3",
                         "--procs=256", "--runs=15", "--patterns=30"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "VC (verify + checkpoint)"));
  EXPECT_TRUE(contains(r.out, "multi-verification"));
  EXPECT_TRUE(contains(r.out, "two-level checkpointing"));
  EXPECT_TRUE(contains(r.out, "H simulated"));
}

TEST(ToolProtocols, TwoLevelWinsOnSilentDominatedPlatform) {
  // Atlas (s = 0.9375): the two-level predicted overhead must be the
  // smallest of the three. Parse the "H predicted" column order by
  // checking the two-level row's value is below the VC row's.
  const ToolRun r = run({"protocols", "--platform=atlas", "--scenario=3",
                         "--procs=512", "--runs=5", "--patterns=10"});
  ASSERT_EQ(r.code, 0) << r.err;
  const auto vc_pos = r.out.find("VC (verify + checkpoint)");
  const auto two_pos = r.out.find("two-level checkpointing");
  ASSERT_NE(vc_pos, std::string::npos);
  ASSERT_NE(two_pos, std::string::npos);
  // Extract the predicted-overhead cells (4th column) of both rows.
  const auto cell = [&](std::size_t row_start) {
    std::istringstream row(
        r.out.substr(row_start, r.out.find('\n', row_start) - row_start));
    std::string tok;
    std::vector<std::string> cells;
    while (row >> tok) cells.push_back(tok);
    // "...name tokens... n T H_pred H_sim ±ci": H_pred is cells[-3].
    return std::stod(cells[cells.size() - 3]);
  };
  EXPECT_LT(cell(two_pos), cell(vc_pos));
}

TEST(ToolProtocols, EveryRowHonoursTheSystemAndBackendOptions) {
  // A failure law, a correlated world and the DES backend each change
  // every row's simulated overhead: no protocol silently ignores them.
  const auto simulated_cells = [](const std::vector<std::string>& extra) {
    std::vector<std::string> args = {"protocols", "--platform=hera",
                                     "--scenario=3", "--procs=512",
                                     "--runs=20", "--patterns=30"};
    args.insert(args.end(), extra.begin(), extra.end());
    const ToolRun r = run(args);
    EXPECT_EQ(r.code, 0) << r.err;
    std::vector<std::string> cells;
    for (const char* row : {"VC (verify + checkpoint)", "multi-verification",
                            "two-level checkpointing"}) {
      const auto pos = r.out.find(row);
      EXPECT_NE(pos, std::string::npos) << row;
      if (pos == std::string::npos) continue;
      // "H simulated" is the last cell: "<mean> ±<half-width>".
      const std::string line = r.out.substr(pos, r.out.find('\n', pos) - pos);
      cells.push_back(line.substr(line.rfind(' ', line.rfind(" ±") - 1) + 1));
    }
    return cells;
  };
  const std::vector<std::string> base = simulated_cells({});
  ASSERT_EQ(base.size(), 3u);
  for (const std::vector<std::string>& extra :
       {std::vector<std::string>{"--failure-dist=weibull:k=0.5"},
        std::vector<std::string>{"--shock=rho=0.6,group=0.05"},
        std::vector<std::string>{"--des"}}) {
    const std::vector<std::string> got = simulated_cells(extra);
    ASSERT_EQ(got.size(), 3u);
    for (std::size_t row = 0; row < 3; ++row) {
      EXPECT_NE(got[row], base[row]) << extra[0] << " row " << row;
    }
  }
}

// -- plan ----------------------------------------------------------------

TEST(ToolPlan, ReportsMakespanAndCheckpointCount) {
  const ToolRun r = run({"plan", "--platform=coastal", "--scenario=3",
                         "--work=1e8", "--name=climate-run"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "climate-run"));
  EXPECT_TRUE(contains(r.out, "optimal plan:"));
  EXPECT_TRUE(contains(r.out, "checkpoints"));
  EXPECT_TRUE(contains(r.out, "P* (optimal)"));
  EXPECT_TRUE(contains(r.out, "vs optimal"));
}

TEST(ToolPlan, OverAllocationIsReportedSlower) {
  const ToolRun r =
      run({"plan", "--platform=hera", "--scenario=1", "--work=1e7"});
  ASSERT_EQ(r.code, 0) << r.err;
  // The 4x-overallocated row must show a positive makespan delta.
  const auto pos = r.out.find("4 x P*");
  ASSERT_NE(pos, std::string::npos);
  const std::string row = r.out.substr(pos, r.out.find('\n', pos) - pos);
  EXPECT_TRUE(contains(row, "+")) << row;
}

TEST(ToolPlan, MaxProcsCapsTheAllocation) {
  const ToolRun r = run({"plan", "--platform=hera", "--scenario=1",
                         "--work=1e7", "--max-procs=64"});
  ASSERT_EQ(r.code, 0) << r.err;
  EXPECT_TRUE(contains(r.out, "P* = 64"));
  EXPECT_TRUE(contains(r.out, "boundary"));
}

TEST(ToolPlan, RefusesWhatItsAnalyticPlanCannotActOn) {
  // These used to print the exponential plan as if the option were not
  // there; each now fails before any output, naming the option and the
  // command that searches under it.
  for (const auto& [option, name] :
       {std::pair{"--failure-dist=weibull:k=0.5", "--failure-dist"},
        std::pair{"--failure-dist=lognormal:sigma=1.2", "--failure-dist"},
        std::pair{"--shock=rho=0.3", "--shock"},
        std::pair{"--hetero=0.5*1.5*exponential;0.5*0.5*exponential",
                  "--hetero"}}) {
    const ToolRun r = run({"plan", "--platform=hera", option});
    EXPECT_EQ(r.code, 1) << option;
    EXPECT_TRUE(contains(r.err, name)) << option << ": " << r.err;
    EXPECT_TRUE(contains(r.err, "ayd optimize --simulate"))
        << option << ": " << r.err;
    EXPECT_TRUE(r.out.empty()) << option << ": " << r.out;
  }
  EXPECT_EQ(run({"plan", "--platform=hera",
                 "--failure-dist=exponential,mtbf=3e9"})
                .code,
            0);
}

TEST(ToolOptimize, CorrelatedWorldOptionsRequireTheSimulation) {
  for (const auto& [option, name] :
       {std::pair{"--shock=rho=0.3", "--shock"},
        std::pair{"--hetero=0.5*1.5*exponential;0.5*0.5*exponential",
                  "--hetero"}}) {
    const ToolRun r = run({"optimize", "--platform=hera", option});
    EXPECT_EQ(r.code, 1) << option;
    EXPECT_TRUE(contains(r.err, std::string(name) + " requires --simulate"))
        << option << ": " << r.err;
    EXPECT_TRUE(r.out.empty()) << option << ": " << r.out;
    EXPECT_EQ(run({"optimize", "--platform=hera", option, "--simulate",
                   "--procs=512", "--runs=4", "--patterns=8",
                   "--max-reps=8", "--threads=1"})
                  .code,
              0)
        << option;
  }
}

// -- watch ---------------------------------------------------------------

TEST(ToolWatch, RefusesEstimatorOptionsItCannotHonour) {
  // Each of these used to run (exit 0) with the value silently replaced
  // or unable to ever re-plan; each must now fail naming its option.
  const std::string trace =
      std::string(AYD_TEST_DATA_DIR) + "/replay_stationary_exp.csv";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--window=0", "--window"},
      {"--refit-interval=0", "--refit-interval"},
      {"--min-mean-llr=nan", "--min-mean-llr"},
      {"--min-mean-llr=inf", "--min-mean-llr"},
  };
  for (const auto& [arg, name] : cases) {
    const ToolRun r = run({"watch", "--trace", trace, "--lambda=2.78e-4",
                           "--procs=1", "--runs=8", "--patterns=32",
                           "--max-reps=64", arg});
    EXPECT_NE(r.code, 0) << arg;
    EXPECT_TRUE(contains(r.err, name)) << arg << ": " << r.err;
  }
}

TEST(ToolCiRelTol, BadTargetsAreRefusedNamingTheOption) {
  // Each used to reach the adaptive driver and die on its precondition.
  const std::string trace =
      std::string(AYD_TEST_DATA_DIR) + "/replay_stationary_exp.csv";
  const std::vector<std::vector<std::string>> commands = {
      {"optimize", "--platform=hera", "--scenario=1",
       "--failure-dist=weibull:k=0.7", "--simulate", "--procs=512",
       "--runs=4", "--patterns=8", "--max-reps=8"},
      {"watch", "--trace", trace, "--lambda=2.78e-4", "--procs=1",
       "--runs=8", "--patterns=32", "--max-reps=64"},
  };
  for (std::vector<std::string> args : commands) {
    for (const std::string value : {"0", "-1", "nan"}) {
      args.push_back("--ci-rel-tol=" + value);
      const ToolRun r = run(args);
      EXPECT_EQ(r.code, 1) << args[0] << " " << value;
      EXPECT_TRUE(contains(r.err, "--ci-rel-tol must be finite and > 0"))
          << args[0] << " " << value << ": " << r.err;
      EXPECT_FALSE(contains(r.err, "precondition"))
          << args[0] << " " << value << ": " << r.err;
      args.pop_back();
    }
  }
}

}  // namespace
}  // namespace ayd::tool
