// Microbenchmark of the simulation stack: single-thread replication
// throughput (runs/sec and patterns/sec) of both protocol back-ends under
// exponential, Weibull and log-normal arrivals, plus the segmented
// interpreters (multi-verification n=2, two-level n=2, a shock world and
// the segmented DES) at the failure-rich Weibull system, emitted as
// BENCH_sim.json so the perf trajectory of the simulator hot path is
// tracked across commits.
//
// Each configuration that reads the variate tier (the plain DES) is timed
// twice: once under the auto-detected SIMD tier (AVX2 where the host has
// it) and once under the forced scalar reference tier, so the JSON carries
// the vectorization gain (simd_vs_scalar) measured within one run on one
// machine. The stream-fed fast path and the segmented interpreters call no
// vectorized kernel, so their rows are timed once. CI greps the
// "SIM-BENCH" summary lines.
//
// A second section times a fig5-style lambda sweep under Weibull failures
// twice — independent per-point sampling vs common random numbers (one
// shared unit-variate pool, one sampling pass per grid) — and reports the
// end-to-end sweep speedup as crn_vs_independent.

#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.hpp"

#include "ayd/core/first_order.hpp"
#include "ayd/core/segmented.hpp"
#include "ayd/engine/engine.hpp"
#include "ayd/io/json.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/rng/simd.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/util/strings.hpp"
#include "ayd/util/version.hpp"

namespace {

using namespace ayd;
using bench::seconds_since;

struct Config {
  std::string dist;     ///< "exponential" | "weibull:k=0.7" | "lognormal:s=1.2"
  std::string backend;  ///< "fast" | "des"
  std::string regime;   ///< "paper" | "failure-rich"
  sim::Backend kind;
  /// Multiplier on the platform's lambda_ind; in the failure-rich regime
  /// most draws need a transform.
  double lambda_scale = 1.0;
  /// "vc" (the plain simulators) or a segmented world: "multi" (n=2
  /// verified segments), "two-level" (n=2, L = V) or "shock" (VC under a
  /// correlated shock stream).
  std::string world = "vc";
};

struct Throughput {
  double runs_per_sec = 0.0;
  double patterns_per_sec = 0.0;
};

struct Measurement {
  Config config;
  Throughput active;                 ///< under the auto-detected tier
  std::optional<Throughput> scalar;  ///< forced scalar reference tier
  /// True when the configuration never touches the variate tier (the
  /// stream-fed fast path calls no vectorized kernel), so a scalar
  /// re-measure would only report timing noise.
  bool tier_invariant = false;
};

/// Best-of-`reps` throughput of serial replication calls (the driver of
/// cfg.world) under the currently active variate tier; the outer
/// iteration count is calibrated so one rep runs long enough to time
/// reliably.
Throughput time_config(const Config& cfg, const model::System& sys,
                       const core::Pattern& pattern,
                       const sim::ReplicationOptions& opt, int reps) {
  sim::ReplicationScratch scratch;
  const model::System shocked = sys.with_shock({0.6, 0.05, {}});
  const auto one_call = [&] {
    if (cfg.world == "multi") {
      (void)sim::simulate_segmented_overhead(
          sys, {pattern.period, pattern.procs, 2}, opt);
    } else if (cfg.world == "two-level") {
      (void)sim::simulate_segmented_overhead(
          core::TwoLevelSystem::with_memory_level1(sys),
          {pattern.period, pattern.procs, 2}, opt);
    } else if (cfg.world == "shock") {
      (void)sim::simulate_overhead(shocked, pattern, opt, nullptr, &scratch);
    } else {
      (void)sim::simulate_overhead(sys, pattern, opt, nullptr, &scratch);
    }
  };

  // Calibrate: aim for ~0.25 s per rep.
  auto t0 = std::chrono::steady_clock::now();
  one_call();
  const double probe = seconds_since(t0);
  const auto outer = static_cast<std::size_t>(
      std::fmax(1.0, std::ceil(0.25 / std::fmax(probe, 1e-6))));

  double best = probe * static_cast<double>(outer);
  for (int rep = 0; rep < reps; ++rep) {
    t0 = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < outer; ++i) one_call();
    best = std::fmin(best, seconds_since(t0));
  }

  Throughput t;
  const double runs = static_cast<double>(outer * opt.replicas);
  t.runs_per_sec = runs / best;
  t.patterns_per_sec =
      runs * static_cast<double>(opt.patterns_per_replica) / best;
  return t;
}

Measurement measure(const Config& cfg, const model::System& sys,
                    const core::Pattern& pattern,
                    const sim::ReplicationOptions& opt, int reps) {
  Measurement m;
  m.config = cfg;
  m.tier_invariant = cfg.backend == "fast" || cfg.world != "vc";
  m.active = time_config(cfg, sys, pattern, opt, reps);
  if (!m.tier_invariant &&
      rng::simd::active_tier() != rng::simd::Tier::kScalar) {
    rng::simd::force_tier(rng::simd::Tier::kScalar);
    m.scalar = time_config(cfg, sys, pattern, opt, reps);
    rng::simd::clear_forced_tier();
  }
  return m;
}

/// End-to-end wall time of a fig5-style lambda sweep under Weibull
/// failures: every point re-plans and simulates its own optimal period;
/// with CRN the points share one unit-variate pool (one sampling pass per
/// grid) instead of each re-sampling its replicas from scratch.
struct SweepResult {
  std::string dist;
  std::size_t points = 0;
  double seconds_independent = 0.0;
  double seconds_crn = 0.0;
};

SweepResult time_crn_sweep(const sim::ReplicationOptions& replication,
                           int reps) {
  const model::Platform platform = model::hera();
  const model::System base =
      model::System::from_platform(platform, model::Scenario::kS1)
          .with_failure_dist(model::FailureDistSpec::weibull(0.7));
  const double procs = platform.measured_procs;

  // A failure-rich band (x180..x450 the platform rate): sampling
  // dominates the sweep there, which is exactly where sharing one
  // sampling pass across the grid pays. Below the band, per-pattern
  // decision logic (common to both modes) dilutes the ratio; above it,
  // recovery draws — cheap on both sides — take over and the two modes
  // converge. The planner is Theorem 1 (closed form), so the timed
  // work is the simulation itself, as in the paper's figures.
  const double lambda0 = base.failure().lambda_ind();
  engine::GridSpec grid;
  grid.axis(engine::Axis::spaced("lambda", 180.0 * lambda0, 450.0 * lambda0,
                                 32, /*log=*/true));
  const auto pts = grid.points();

  engine::EvalSpec spec;
  spec.first_order = true;
  spec.simulate_first_order = true;
  spec.replication = replication;
  // Fig-style sweeps run the fast sampler regardless of whatever backend
  // the caller's options were last pointed at.
  spec.replication.backend = sim::Backend::kFast;

  const auto run_sweep = [&](bool crn) {
    sim::VariateCache cache;  // fresh per sweep: pools are built in-run
    spec.crn = crn ? &cache : nullptr;
    const auto t0 = std::chrono::steady_clock::now();
    const auto records =
        engine::run_points(pts, nullptr, [&](const engine::Point& pt) {
          const model::System sys = engine::apply_axes(base, pt);
          const engine::PointEval ev =
              engine::evaluate_point(sys, spec, procs);
          engine::Record r;
          r.set("lambda", pt.var("lambda"));
          r.set("sim_overhead", ev.sim_first_order->overhead.mean);
          return r;
        });
    const double seconds = seconds_since(t0);
    if (records.size() != pts.size()) std::abort();  // keep the work live
    return seconds;
  };

  SweepResult r;
  r.dist = "weibull:k=0.7";
  r.points = pts.size();
  // One untimed warmup of each mode brings code, allocator arenas and
  // branch predictors to steady state; the timed reps then measure the
  // sweep itself, with each CRN rep still paying for its own pool
  // generation (fresh cache per rep — the one sampling pass is part of
  // the cost being claimed). The two modes alternate within each rep so
  // that slow drift in the machine's effective speed (turbo state, a
  // shared container's CPU quota draining after the throughput configs
  // above) hits both sides alike instead of biasing whichever runs last.
  (void)run_sweep(/*crn=*/false);
  (void)run_sweep(/*crn=*/true);
  r.seconds_independent = 1e300;
  r.seconds_crn = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    r.seconds_independent =
        std::fmin(r.seconds_independent, run_sweep(/*crn=*/false));
    r.seconds_crn = std::fmin(r.seconds_crn, run_sweep(/*crn=*/true));
  }
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  return bench::run_experiment_main(
      argc, argv,
      "Micro — simulator replication throughput (fast vs DES, SIMD vs "
      "scalar, CRN vs independent)",
      "single-thread runs/sec of both protocol back-ends under "
      "exponential, Weibull and log-normal arrivals, per variate tier; "
      "JSON written for the perf trajectory",
      [](cli::ArgParser& p) {
        p.add_option("out", "BENCH_sim.json",
                     "output path for the JSON record");
        p.add_option("reps", "5", "timing repetitions (best is kept)");
        p.add_option("sweep-reps", "3",
                     "timing repetitions of the CRN sweep (best is kept)");
      },
      [](const cli::ArgParser& args, const cli::ExperimentContext& ctx) {
        const model::Platform platform = model::hera();
        const model::System base =
            model::System::from_platform(platform, model::Scenario::kS1);

        sim::ReplicationOptions opt;
        opt.replicas = ctx.runs;
        opt.patterns_per_replica = ctx.patterns;
        opt.seed = ctx.seed;

        const std::vector<Config> configs{
            {"exponential", "fast", "paper", sim::Backend::kFast},
            {"exponential", "des", "paper", sim::Backend::kDes},
            {"weibull:k=0.7", "fast", "paper", sim::Backend::kFast},
            {"weibull:k=0.7", "des", "paper", sim::Backend::kDes},
            // x600 the platform rate: ~60% of draws land below threshold
            // and need the quantile inversion.
            {"weibull:k=0.7", "fast", "failure-rich", sim::Backend::kFast,
             600.0},
            {"lognormal:s=1.2", "fast", "paper", sim::Backend::kFast},
            {"lognormal:s=1.2", "des", "paper", sim::Backend::kDes},
            {"lognormal:s=1.2", "fast", "failure-rich", sim::Backend::kFast,
             600.0},
            // The segmented interpreters and the plain DES at the
            // failure-rich Weibull system.
            {"weibull:k=0.7", "fast", "failure-rich", sim::Backend::kFast,
             600.0, "multi"},
            {"weibull:k=0.7", "fast", "failure-rich", sim::Backend::kFast,
             600.0, "two-level"},
            {"weibull:k=0.7", "fast", "failure-rich", sim::Backend::kFast,
             600.0, "shock"},
            {"weibull:k=0.7", "des", "failure-rich", sim::Backend::kDes,
             600.0},
            {"weibull:k=0.7", "des", "failure-rich", sim::Backend::kDes,
             600.0, "multi"},
        };
        const int reps = static_cast<int>(args.option_int("reps"));
        const char* tier = rng::simd::tier_name(rng::simd::active_tier());

        std::vector<Measurement> results;
        for (const Config& cfg : configs) {
          model::System sys = base;
          if (cfg.lambda_scale != 1.0) {
            sys = sys.with_lambda(sys.failure().lambda_ind() *
                                  cfg.lambda_scale);
          }
          if (cfg.dist != "exponential") {
            sys = sys.with_failure_dist(model::FailureDistSpec::parse(cfg.dist));
          }
          // Each regime deploys its own Theorem-1 pattern (shape-blind, so
          // the paper-regime pattern matches the historical harness).
          const core::Pattern pattern{
              core::optimal_period_first_order(sys, platform.measured_procs),
              platform.measured_procs};
          opt.backend = cfg.kind;
          const Measurement m = measure(cfg, sys, pattern, opt, reps);
          results.push_back(m);

          std::string extras;
          if (m.tier_invariant) {
            extras += "  tier-invariant";
          } else if (m.scalar.has_value()) {
            extras += "  " + util::format_sig(m.active.runs_per_sec /
                                                  m.scalar->runs_per_sec,
                                              3) +
                      "x scalar tier";
          }
          const std::string world =
              cfg.world == "vc" ? "" : "  world=" + cfg.world;
          std::printf("SIM-BENCH %-15s %-4s %-12s [%s]: %10.0f runs/s  "
                      "%12.0f patterns/s%s%s\n",
                      cfg.dist.c_str(), cfg.backend.c_str(),
                      cfg.regime.c_str(), tier, m.active.runs_per_sec,
                      m.active.patterns_per_sec, extras.c_str(),
                      world.c_str());
        }

        const SweepResult sweep = time_crn_sweep(
            opt, static_cast<int>(args.option_int("sweep-reps")));
        std::printf("SIM-BENCH crn-sweep %s [%s]: %zu pts  independent "
                    "%.3fs  crn %.3fs  (%sx)\n",
                    sweep.dist.c_str(), tier, sweep.points,
                    sweep.seconds_independent, sweep.seconds_crn,
                    util::format_sig(sweep.seconds_independent /
                                         sweep.seconds_crn,
                                     3)
                        .c_str());

        const std::string out_path = args.option("out");
        std::ofstream out(out_path);
        if (!out) {
          std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
          return;
        }
        io::JsonWriter json(out, /*pretty=*/true);
        json.begin_object();
        json.kv("benchmark", "sim_throughput");
        json.kv("version", util::version_string());
        json.kv("tier", tier);
        json.kv("replicas", static_cast<std::uint64_t>(opt.replicas));
        json.kv("patterns_per_replica",
                static_cast<std::uint64_t>(opt.patterns_per_replica));
        json.kv("seed", static_cast<std::uint64_t>(opt.seed));
        json.kv("threads", static_cast<std::uint64_t>(1));
        json.key("results");
        json.begin_array();
        for (const Measurement& m : results) {
          json.begin_object();
          json.kv("dist", m.config.dist);
          json.kv("backend", m.config.backend);
          json.kv("regime", m.config.regime);
          json.kv("world", m.config.world);
          json.kv("tier_invariant", m.tier_invariant);
          json.kv("runs_per_sec", m.active.runs_per_sec);
          json.kv("patterns_per_sec", m.active.patterns_per_sec);
          json.kv("ns_per_replication", 1e9 / m.active.runs_per_sec);
          if (m.scalar.has_value()) {
            json.kv("scalar_runs_per_sec", m.scalar->runs_per_sec);
            json.kv("simd_vs_scalar",
                    m.active.runs_per_sec / m.scalar->runs_per_sec);
          }
          json.end_object();
        }
        json.end_array();
        json.key("crn_sweep");
        json.begin_object();
        json.kv("dist", sweep.dist);
        json.kv("planner", "first_order");
        json.kv("points", static_cast<std::uint64_t>(sweep.points));
        json.kv("replicas", static_cast<std::uint64_t>(opt.replicas));
        json.kv("patterns_per_replica",
                static_cast<std::uint64_t>(opt.patterns_per_replica));
        json.kv("seconds_independent", sweep.seconds_independent);
        json.kv("seconds_crn", sweep.seconds_crn);
        json.kv("crn_vs_independent",
                sweep.seconds_independent / sweep.seconds_crn);
        json.end_object();
        json.end_object();
        out << "\n";
        std::printf("(JSON record written to %s)\n", out_path.c_str());
      });
}
