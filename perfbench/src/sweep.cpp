// Workload `sweep`: figure-style grids through engine::run_grid on an
// nproc pool, one grid after another, in four parts per pass:
//   (a) a 32-point failure-rich Weibull lambda sweep with common random
//       numbers (EvalSpec.crn; a fresh variate pool per pass, because
//       users pay its generation on every sweep);
//   (b) the same points on the DES backend;
//   (c) a correlated grid over shock rho x PFS penalty;
//   (d) the `ayd protocols` trio (VC, multi-verification, two-level) over
//       scenarios 1-6.
// One op is one grid point or one protocol row. The seed jitters the
// lambda range and the shock correlations and sets the replication seed.

#include <cmath>
#include <sstream>

#include "ayd/core/multi_verification.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/two_level.hpp"
#include "ayd/engine/engine.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/sim/multi_protocol.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/sim/two_level_protocol.hpp"
#include "ayd/sim/variate_pool.hpp"
#include "bench.hpp"

namespace pb {
namespace {

using namespace ayd;

enum Part : int { kCrn = 0, kDes = 1, kCorrelated = 2, kProtocols = 3 };
constexpr const char* kPartName[] = {"crn", "des", "correlated", "protocols"};

std::string serialize(const std::vector<engine::Record>& records) {
  std::ostringstream os;
  os.precision(17);
  for (const engine::Record& r : records) {
    for (const auto& [key, value] : r.fields()) {
      os << key << '=';
      if (value.kind == engine::Value::Kind::kNumber) {
        os << value.number;
      } else {
        os << value.text;
      }
      os << ';';
    }
    os << '\n';
  }
  return os.str();
}

void add_summary(engine::Record& r, const sim::ReplicationResult& res) {
  r.set("overhead", res.overhead.mean);
  r.set("ci_lo", res.overhead.ci.lo);
  r.set("ci_hi", res.overhead.ci.hi);
  r.set("attempts_per_pattern", res.attempts_per_pattern);
}

class SweepWorkload final : public Workload {
 public:
  SweepWorkload(std::uint64_t seed, unsigned threads) : threads_(threads) {
    rng::RngStream rng(seed, /*stream=*/0x5EE9);
    const auto jitter = [&](double spread) {
      return std::exp(spread * (rng.next_uniform01() - 0.5));
    };
    // Small jitter: a seed picks another instance of the same figure
    // without changing how much work its points are.
    lambda_lo_ = 2e-8 * jitter(0.04);
    lambda_hi_ = 2e-6 * jitter(0.04);
    for (double rho : {0.3, 0.6, 0.9}) rhos_.push_back(rho * jitter(0.04));
    rep_seed_ = rng.next_u64() >> 16;
  }

  OpClasses classes() const override {
    return {"one grid point or protocol row",
            "CRN-pooled Weibull point (fast path, shared variates)",
            "DES-backend Weibull point (event-queue reference)"};
  }

  std::string inputs_text() const override {
    std::ostringstream os;
    os.precision(17);
    os << "lambda " << lambda_lo_ << ' ' << lambda_hi_ << " x32\n";
    os << "rho";
    for (const double r : rhos_) os << ' ' << r;
    os << "\npfs_penalty 1 4 8\nreplication_seed " << rep_seed_ << '\n';
    return os.str();
  }

  void setup() override {
    pool_ = std::make_unique<exec::ThreadPool>(threads_);
    // Warm-up: one pass, whose records also anchor the identity checks.
    first_pass_ = run_pass(*pool_, nullptr);
  }

  LoopResult run(double seconds) override {
    LoopResult r(seconds);
    const auto t0 = Clock::now();
    loop_t0_ = t0;
    while (seconds_since(t0) < seconds) {
      const std::string pass = run_pass(*pool_, &r);
      if (pass != first_pass_) ++r.failed;
    }
    r.wall_s = seconds_since(t0);
    return r;
  }

  void check(Checks& checks) override {
    exec::ThreadPool one(1);
    checks.expect(run_pass(one, nullptr) == first_pass_,
                  "sweep records differ between 1 and nproc threads");
  }

  void layer_metrics(const SpanIndex& spans, Report& report) override {
    report.add("engine.point_ms_p50", spans.median_ns("engine.point") * 1e-6,
               "ms", base_count(spans.count("engine.point")));
    const double busy = spans.total_ns("engine.point");
    const double capacity = spans.total_ns("sweep.grid") *
                            static_cast<double>(pool_->size());
    report.add("engine.grid_overhead_share",
               capacity > 0.0 ? 1.0 - busy / capacity : 0.0, "ratio",
               base_ratio(capacity - busy, capacity));
    const double units = crn_passes_ > 0
                             ? static_cast<double>(crn_units_) / crn_passes_
                             : 0.0;
    report.add("crn.units_generated", units, "count",
               "per sweep, " + base_count(crn_passes_));
    report.add("crn.pool_mb", units * sizeof(double) / 1e6, "MB",
               "computed: units x 8 bytes");
    report.add("crn.pooled_points_share",
               points_ > 0 ? static_cast<double>(pooled_points_) / points_
                           : 0.0,
               "ratio", base_ratio(pooled_points_, points_));

    exec::ThreadPool one(1);
    auto t0 = Clock::now();
    (void)run_pass(one, nullptr);
    const double t1 = seconds_since(t0);
    t0 = Clock::now();
    (void)run_pass(*pool_, nullptr);
    const double tn = seconds_since(t0);
    const double n = static_cast<double>(pool_->size());
    report.add("exec.parallel_eff.sweep", t1 / (n * tn), "ratio",
               base_ratio(t1, n * tn));
  }

 private:
  sim::ReplicationOptions replication(sim::Backend backend) const {
    sim::ReplicationOptions opt;
    opt.replicas = 128;
    opt.patterns_per_replica = 256;
    opt.seed = rep_seed_;
    opt.backend = backend;
    return opt;
  }

  /// Runs one grid, timing every point; returns its serialised records.
  std::string grid(exec::ThreadPool& pool, Part part,
                   const engine::GridSpec& spec, const engine::EvalFn& eval,
                   LoopResult* r) {
    std::vector<double> seconds(spec.size());
    std::vector<engine::Record> records;
    {
      Tracer::Scope s("sweep.grid", static_cast<std::uint64_t>(part));
      records = engine::run_grid(spec, &pool, [&](const engine::Point& pt) {
        Tracer::Scope ps("engine.point", static_cast<std::uint64_t>(part));
        const auto a = Clock::now();
        engine::Record rec = eval(pt);
        seconds[pt.index] = seconds_since(a);
        return rec;
      });
    }
    if (r != nullptr) {
      const double done = seconds_since(loop_t0_);
      for (const double s : seconds) {
        r->completed(done);
        r->latency.add(s);
        if (part == kCrn) r->hot.add(s);
        if (part == kDes) r->cold.add(s);
      }
      points_ += seconds.size();
      if (part == kCrn) pooled_points_ += seconds.size();
    }
    return std::string(kPartName[part]) + "\n" + serialize(records);
  }

  std::string run_pass(exec::ThreadPool& pool, LoopResult* r) {
    std::string out;
    const model::FailureDistSpec weibull = model::FailureDistSpec::weibull(0.7);
    const engine::SystemSpec base{model::hera(), model::Scenario::kS3, 0.1,
                                  3600.0, weibull};
    engine::GridSpec lambdas;
    lambdas.axis(engine::Axis::log_spaced("lambda", lambda_lo_, lambda_hi_, 32))
        .axis(engine::Axis::list("procs", {512.0}));

    // (a) CRN: one shared unit-variate pool per pass.
    {
      sim::VariateCache cache;
      engine::EvalSpec spec;
      spec.numerical = true;
      spec.simulate_numerical = true;
      spec.replication = replication(sim::Backend::kFast);
      spec.crn = &cache;
      out += grid(pool, kCrn, lambdas, [&](const engine::Point& pt) {
        const model::System sys = engine::system_for_point(base, pt);
        const engine::PointEval ev =
            engine::evaluate_point(sys, spec, pt.var("procs"));
        engine::Record rec;
        rec.set("lambda", pt.var("lambda"));
        rec.set("period", ev.period->period);
        add_summary(rec, *ev.sim_numerical);
        return rec;
      }, r);
      if (r != nullptr) {
        crn_units_ += cache.pool_for(weibull, rep_seed_)->generated();
        ++crn_passes_;
      }
    }
    // (b) The same points on the DES backend.
    {
      engine::EvalSpec spec;
      spec.numerical = true;
      spec.simulate_numerical = true;
      spec.replication = replication(sim::Backend::kDes);
      out += grid(pool, kDes, lambdas, [&](const engine::Point& pt) {
        const model::System sys = engine::system_for_point(base, pt);
        const engine::PointEval ev =
            engine::evaluate_point(sys, spec, pt.var("procs"));
        engine::Record rec;
        rec.set("lambda", pt.var("lambda"));
        add_summary(rec, *ev.sim_numerical);
        return rec;
      }, r);
    }
    // (c) Correlated worlds: shock rho x PFS penalty on a failure-prone,
    // fail-stop-dominated base (the fig10 stress setup).
    {
      const model::System preset =
          model::System::from_platform(model::hera(), model::Scenario::kS1);
      const model::System stress(model::FailureModel(1e-7, 0.95),
                                 preset.costs(), preset.downtime(),
                                 preset.speedup_model());
      engine::GridSpec corr;
      corr.axis(engine::Axis::list("shock_rho", rhos_))
          .axis(engine::Axis::list("pfs_penalty", {1.0, 4.0, 8.0}));
      engine::EvalSpec spec;
      spec.numerical = true;
      spec.simulate_numerical = true;
      spec.replication = replication(sim::Backend::kFast);
      out += grid(pool, kCorrelated, corr, [&](const engine::Point& pt) {
        const model::System sys = engine::apply_axes(stress, pt);
        const engine::PointEval ev = engine::evaluate_point(sys, spec, 256.0);
        engine::Record rec;
        rec.set("rho", pt.var("shock_rho"));
        rec.set("pfs_penalty", pt.var("pfs_penalty"));
        add_summary(rec, *ev.sim_numerical);
        rec.set("shocks_per_pattern",
                ev.sim_numerical->shock_errors_per_pattern);
        return rec;
      }, r);
    }
    // (d) The protocol trio of `ayd protocols`, one row per point.
    {
      engine::GridSpec rows;
      rows.scenarios(model::all_scenarios())
          .axis(engine::Axis::list("protocol", {0.0, 1.0, 2.0}));
      const sim::ReplicationOptions opt = replication(sim::Backend::kFast);
      out += grid(pool, kProtocols, rows, [&](const engine::Point& pt) {
        const model::System sys =
            model::System::from_platform(model::hera(), *pt.scenario);
        const double procs = core::optimal_allocation(sys).procs;
        engine::Record rec;
        rec.set("protocol", pt.var("protocol"));
        switch (static_cast<int>(pt.var("protocol"))) {
          case 0: {
            const core::PeriodOptimum vc = core::optimal_period(sys, procs);
            add_summary(rec, sim::simulate_overhead(sys, {vc.period, procs},
                                                    opt));
            break;
          }
          case 1: {
            const core::MultiOptimum mv =
                core::optimal_multi_pattern(sys, procs);
            add_summary(rec, sim::simulate_multi_overhead(
                                 sys, {mv.period, procs, mv.segments}, opt));
            break;
          }
          default: {
            const core::TwoLevelSystem two =
                core::TwoLevelSystem::with_memory_level1(sys);
            const core::TwoLevelOptimum t2 =
                core::optimal_two_level_pattern(two, procs);
            add_summary(rec, sim::simulate_two_level_overhead(
                                 two, {t2.period, procs, t2.segments}, opt));
          }
        }
        return rec;
      }, r);
    }
    return out;
  }

  unsigned threads_;
  double lambda_lo_ = 0.0;
  double lambda_hi_ = 0.0;
  std::vector<double> rhos_;
  std::uint64_t rep_seed_ = 0;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::string first_pass_;
  Clock::time_point loop_t0_;  ///< start of the running loop
  std::size_t points_ = 0;
  std::size_t pooled_points_ = 0;
  std::size_t crn_units_ = 0;
  std::size_t crn_passes_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_sweep(std::uint64_t seed, unsigned threads) {
  return std::make_unique<SweepWorkload>(seed, threads);
}

}  // namespace pb
