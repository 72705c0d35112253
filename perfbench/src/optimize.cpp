// Workload `optimize`: one caller works through a seeded catalog of
// robust-optimum questions via the entry `ayd optimize --simulate --json`
// runs (tool::write_optimize_record with an nproc pool).
//
// Catalog: Table II platforms x scenarios 1-6 x {weibull k=0.5, 0.7, 1.4;
// lognormal sigma=1.2} x {P=256, P=2048, joint (T, P)}, plus exponential
// questions at {P=256, joint} (about one in seven, so the closed-form
// shortcut stays covered), all at --ci-rel-tol 0.01. Every question
// carries its own simulation seed; the run seed shuffles the order the
// caller asks them in. The loop cycles the catalog, so a repeated
// question must reproduce its first answer byte for byte.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>

#include "ayd/cli/args.hpp"
#include "ayd/core/first_order.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/overhead.hpp"
#include "ayd/core/sim_optimizer.hpp"
#include "ayd/core/young_daly.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/io/json.hpp"
#include "ayd/io/json_parse.hpp"
#include "ayd/sim/protocol.hpp"
#include "ayd/sim/runner.hpp"
#include "ayd/tool/commands.hpp"
#include "ayd/tool/optimize_json.hpp"
#include "bench.hpp"

namespace pb {
namespace {

using namespace ayd;

struct Question {
  std::string platform;
  int scenario = 1;
  std::string law;
  std::optional<double> procs;  ///< fixed-P mode; joint when empty
  std::uint64_t seed = 0;

  [[nodiscard]] bool exponential() const { return law == "exponential"; }

  [[nodiscard]] std::vector<std::string> argv() const {
    std::vector<std::string> a{"--platform=" + platform,
                               "--scenario=" + std::to_string(scenario),
                               "--failure-dist=" + law,
                               "--simulate",
                               "--ci-rel-tol=0.01",
                               "--runs=16",
                               "--patterns=32",
                               "--max-reps=256",
                               "--seed=" + std::to_string(seed)};
    if (procs) a.push_back("--procs=" + std::to_string(
                                            static_cast<long long>(*procs)));
    return a;
  }
};

struct Resolved {
  model::System sys;
  tool::OptimizeRequest req;
};

Resolved resolve(const Question& q) {
  cli::ArgParser parser("perfbench optimize", "catalog question");
  tool::add_optimize_options(parser);
  parser.parse_args(q.argv());
  model::System sys = tool::system_from_args(parser);
  return {sys, tool::optimize_request_from_args(parser)};
}

std::string entry_record(const Resolved& r, exec::ThreadPool* pool) {
  std::ostringstream os;
  io::JsonWriter w(os, /*pretty=*/false);
  tool::write_optimize_record(w, r.sys, r.req, pool);
  return os.str();
}

/// Counters of one simulated solve, for the per-layer metrics.
struct SolveStats {
  bool fixed = false;
  bool closed_form = false;
  int evaluations = 0;
  std::uint64_t replicas = 0;
  bool ci_limited = false;
};

void write_sim(io::JsonWriter& w, double period, double procs,
               const stats::Summary& overhead, std::uint64_t total,
               bool used_closed_form, bool converged, bool ci_converged,
               bool ci_limited, bool at_boundary) {
  w.key("simulated");
  w.begin_object();
  if (procs > 0.0) w.kv("procs", procs);
  w.kv("period", period);
  w.kv("overhead", overhead.mean);
  w.kv("overhead_ci_lo", overhead.ci.lo);
  w.kv("overhead_ci_hi", overhead.ci.hi);
  w.kv("replicas", static_cast<double>(overhead.count));
  w.kv("total_replicas", static_cast<double>(total));
  w.kv("used_closed_form", used_closed_form);
  w.kv("converged", converged);
  w.kv("ci_converged", ci_converged);
  w.kv("ci_limited", ci_limited);
  w.kv("at_boundary", at_boundary);
  w.end_object();
}

/// The optimize record rebuilt from the public calls of the layers below
/// (analytic optimisers, the simulated search, the JSON writer), each in
/// its own span. Must be byte-identical to tool::write_optimize_record.
std::string rebuilt_record(const Question& q, std::uint64_t request,
                           exec::ThreadPool* pool, SolveStats& st) {
  std::optional<Resolved> r;
  {
    Tracer::Scope s("optimize.resolve", request);
    r.emplace(resolve(q));
  }
  const model::System& sys = r->sys;
  const tool::OptimizeRequest& req = r->req;
  std::ostringstream os;
  io::JsonWriter w(os, /*pretty=*/false);
  w.begin_object();
  w.key("system");
  w.begin_object();
  w.kv("lambda_ind", sys.failure().lambda_ind());
  w.kv("fail_stop_fraction", sys.failure().fail_stop_fraction());
  w.kv("downtime", sys.downtime());
  w.kv("profile", sys.speedup_model().name());
  w.kv("failure_dist", sys.failure().dist().to_string());
  w.kv("checkpoint", sys.costs().checkpoint.describe());
  w.kv("verification", sys.costs().verification.describe());
  w.end_object();
  if (req.procs.has_value()) {
    const double procs = *req.procs;
    st.fixed = true;
    double t_fo = 0.0;
    double t_ho = 0.0;
    double fo_overhead = 0.0;
    double ho_overhead = 0.0;
    core::PeriodOptimum num;
    {
      Tracer::Scope s("optimize.analytic", request);
      t_fo = core::optimal_period_first_order(sys, procs);
      num = core::optimal_period(sys, procs);
      if (std::isfinite(t_fo)) {
        fo_overhead = core::pattern_overhead(sys, {t_fo, procs});
        t_ho = core::daly_period_vc(sys, procs);
        ho_overhead = core::pattern_overhead(sys, {t_ho, procs});
      }
    }
    core::SimPeriodOptimum sim;
    {
      Tracer::Scope s("sim_optimizer.solve", request);
      sim = core::sim_optimal_period(sys, procs, req.sim_search.period, pool);
    }
    st.closed_form = sim.used_closed_form;
    st.evaluations = sim.evaluations;
    st.replicas = sim.total_replicas;
    st.ci_limited = sim.ci_limited;
    Tracer::Scope s("optimize.serialize", request);
    w.kv("procs", procs);
    w.key("first_order");
    w.begin_object();
    w.kv("period", t_fo);
    if (std::isfinite(t_fo)) w.kv("overhead", fo_overhead);
    w.end_object();
    if (std::isfinite(t_fo)) {
      w.key("higher_order");
      w.begin_object();
      w.kv("period", t_ho);
      w.kv("overhead", ho_overhead);
      w.end_object();
    }
    w.key("numerical");
    w.begin_object();
    w.kv("period", num.period);
    w.kv("overhead", num.overhead);
    w.kv("at_boundary", num.at_boundary);
    w.end_object();
    write_sim(w, sim.period, 0.0, sim.overhead, sim.total_replicas,
              sim.used_closed_form, sim.converged, sim.ci_converged,
              sim.ci_limited, sim.at_boundary);
  } else {
    core::FirstOrderSolution fo;
    core::AllocationOptimum num;
    {
      Tracer::Scope s("optimize.analytic", request);
      fo = core::solve_first_order(sys);
      core::AllocationSearchOptions search;
      search.max_procs = req.max_procs;
      num = core::optimal_allocation(sys, search);
    }
    core::SimAllocationOptimum sim;
    {
      Tracer::Scope s("sim_optimizer.solve", request);
      sim = core::sim_optimal_allocation(sys, req.sim_search, pool);
    }
    st.closed_form = sim.used_closed_form;
    st.replicas = sim.total_replicas;
    Tracer::Scope s("optimize.serialize", request);
    w.key("first_order");
    w.begin_object();
    w.kv("has_optimum", fo.has_optimum);
    if (fo.has_optimum) {
      w.kv("procs", fo.procs);
      w.kv("period", fo.period);
      w.kv("overhead", fo.overhead);
    }
    if (!fo.note.empty()) w.kv("note", fo.note);
    w.end_object();
    w.key("numerical");
    w.begin_object();
    w.kv("procs", num.procs);
    w.kv("period", num.period);
    w.kv("overhead", num.overhead);
    w.kv("at_boundary", num.at_boundary);
    w.end_object();
    write_sim(w, sim.period, sim.procs, sim.overhead, sim.total_replicas,
              sim.used_closed_form, sim.converged, sim.ci_converged,
              /*ci_limited=*/false, sim.at_boundary);
  }
  w.end_object();
  return os.str();
}

/// Single-thread cost of one replica (patterns_per_replica patterns) at
/// `pattern`, timed over `reps` replicas on fresh substreams.
double replica_seconds(const model::System& sys, const core::Pattern& pattern,
                       std::size_t patterns, std::size_t reps) {
  sim::FastProtocolSimulator fast(sys, pattern);
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < reps; ++i) {
    rng::RngStream rng(0xC0FFEEULL, i);
    fast.begin_replica();
    (void)fast.simulate_replica(rng, patterns);
  }
  return seconds_since(t0) / static_cast<double>(reps);
}

class OptimizeWorkload final : public Workload {
 public:
  OptimizeWorkload(std::uint64_t seed, unsigned threads) : threads_(threads) {
    const char* platforms[] = {"hera", "atlas", "coastal", "coastal-ssd"};
    const char* laws[] = {"weibull:k=0.5", "weibull:k=0.7", "weibull:k=1.4",
                          "lognormal:sigma=1.2"};
    for (const char* p : platforms) {
      for (int s = 1; s <= 6; ++s) {
        for (const char* law : laws) {
          catalog_.push_back({p, s, law, 256.0, 0});
          catalog_.push_back({p, s, law, 2048.0, 0});
          catalog_.push_back({p, s, law, std::nullopt, 0});
        }
        catalog_.push_back({p, s, "exponential", 256.0, 0});
        catalog_.push_back({p, s, "exponential", std::nullopt, 0});
      }
    }
    // Question seeds belong to the catalog; the run seed orders it.
    rng::RngStream qrng(0xCA7A109ULL, /*stream=*/0);
    for (Question& q : catalog_) q.seed = qrng.next_u64() >> 16;
    rng::RngStream rng(seed, /*stream=*/0x0971);
    order_.resize(catalog_.size());
    for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
    for (std::size_t i = order_.size(); i > 1; --i) {  // Fisher-Yates
      std::swap(order_[i - 1], order_[rng.next_u64() % i]);
    }
  }

  OpClasses classes() const override {
    return {"one solve (question answered)",
            "exponential question (closed-form shortcut)",
            "Weibull/lognormal question (simulated search)"};
  }

  std::string inputs_text() const override {
    std::ostringstream os;
    for (const std::size_t i : order_) {
      for (const std::string& a : catalog_[i].argv()) os << a << ' ';
      os << '\n';
    }
    return os.str();
  }

  void setup() override {
    pool_ = std::make_unique<exec::ThreadPool>(threads_);
    resolved_.clear();
    for (const Question& q : catalog_) resolved_.push_back(resolve(q));
    // Warm-up: the first solves of a process pay page faults and
    // allocator growth that a long-lived caller does not. The same
    // questions for every seed, so set-up time compares across seeds.
    for (std::size_t qi = 0; qi < 14; ++qi) {
      remember(qi, entry_record(resolved_[qi], pool_.get()),
               /*rebuilt=*/false);
    }
  }

  LoopResult run(double seconds) override {
    LoopResult r(seconds);
    const bool traced = Tracer::enabled();
    const auto t0 = Clock::now();
    std::size_t next = 0;
    while (seconds_since(t0) < seconds) {
      const std::size_t qi = order_[next++ % order_.size()];
      const auto a = Clock::now();
      std::string out;
      bool ok = true;
      try {
        if (traced) {
          Tracer::Scope s("optimize.op", op_id_);
          SolveStats st;
          out = rebuilt_record(catalog_[qi], op_id_, pool_.get(), st);
          solve_stats_.push_back(st);
        } else {
          // The entry resolves its options like the CLI does.
          out = entry_record(resolve(catalog_[qi]), pool_.get());
        }
      } catch (const std::exception& e) {
        std::cerr << "optimize: " << e.what() << "\n";
        ok = false;
      }
      const double dt = seconds_since(a);
      ++op_id_;
      r.completed(seconds_since(t0));
      r.latency.add(dt);
      (catalog_[qi].exponential() ? r.hot : r.cold).add(dt);
      if (!ok || !remember(qi, out, traced)) ++r.failed;
    }
    r.wall_s = seconds_since(t0);
    return r;
  }

  void check(Checks& checks) override {
    for (const auto& [qi, ans] : answers_) {
      const Question& q = catalog_[qi];
      const Resolved& r = resolved_[qi];
      if (ans.rebuilt_only) {
        checks.expect(entry_record(r, pool_.get()) == ans.text,
                      "rebuilt optimize record differs from the entry's: " +
                          q.argv()[0]);
      }
      const io::JsonValue v = io::parse_json(ans.text);
      const io::JsonValue& sim = v.at("simulated");
      if (q.exponential()) {
        // The closed form, bit for bit.
        double period = 0.0;
        if (q.procs) {
          period = core::optimal_period(r.sys, *q.procs).period;
        } else {
          core::AllocationSearchOptions search;
          search.max_procs = r.req.max_procs;
          period = core::optimal_allocation(r.sys, search).period;
        }
        checks.expect(sim.at("used_closed_form").as_bool() &&
                          sim.at("period").as_double() == period,
                      "exponential optimum is not the closed form");
        continue;
      }
      // Re-simulate the reported optimum at a held-out seed: the two
      // estimates must agree within their confidence intervals.
      const double procs = q.procs ? *q.procs : sim.at("procs").as_double();
      const double period = sim.at("period").as_double();
      const core::SimSearchOptions& so = r.req.sim_search.period;
      sim::ReplicationOptions rep = so.replication;
      rep.seed = so.replication.seed ^ 0x5EED0F7E57ULL;
      const sim::ReplicationResult held = sim::simulate_overhead_adaptive(
          r.sys, {period, procs}, rep, so.adaptive, pool_.get());
      const double reported = sim.at("overhead").as_double();
      const double h_rep = 0.5 * (sim.at("overhead_ci_hi").as_double() -
                                  sim.at("overhead_ci_lo").as_double());
      const double h_new = held.overhead.ci.half_width();
      checks.expect(std::abs(held.overhead.mean - reported) <=
                        2.0 * (h_rep + h_new),
                    "held-out re-simulation disagrees with the optimum of " +
                        q.argv()[0] + " " + q.argv()[2]);
    }
  }

  void layer_metrics(const SpanIndex& spans, Report& report) override {
    // Counts the traced solves returned.
    std::size_t fixed = 0, simulated = 0, limited = 0;
    double evals = 0.0, fixed_reps = 0.0, reps = 0.0;
    for (const SolveStats& st : solve_stats_) {
      if (st.closed_form) continue;
      ++simulated;
      reps += static_cast<double>(st.replicas);
      if (!st.fixed) continue;
      ++fixed;
      evals += st.evaluations;
      fixed_reps += static_cast<double>(st.replicas);
      if (st.ci_limited) ++limited;
    }
    const auto share = [](double a, double b) { return b > 0 ? a / b : 0.0; };
    report.add("sim_optimizer.evaluations_per_solve", share(evals, fixed),
               "count", base_ratio(evals, fixed));
    report.add("sim_optimizer.replicas_per_solve", share(reps, simulated),
               "count", base_ratio(reps, simulated));
    report.add("sim_optimizer.ci_limited_share", share(limited, fixed),
               "ratio", base_ratio(limited, fixed));
    report.add("runner.replicas_per_call", share(fixed_reps, evals), "count",
               base_ratio(fixed_reps, evals));
    report.add("sim_optimizer.solve_ms_p50",
               spans.median_ns("sim_optimizer.solve") * 1e-6, "ms",
               base_count(spans.count("sim_optimizer.solve")));
    report.add("optimize.analytic_us_p50",
               spans.median_ns("optimize.analytic") * 1e-3, "us",
               base_count(spans.count("optimize.analytic")));

    // Computed self times: single-thread solves of a fixed sample of
    // simulated fixed-P questions, minus replicas x a separately timed
    // replica of the same system at the reported optimum.
    std::vector<double> self_ms, runner_share, rounds;
    std::size_t sampled = 0;
    for (const std::size_t qi : order_) {
      const Question& q = catalog_[qi];
      if (q.exponential() || !q.procs || sampled == 6) continue;
      ++sampled;
      const Resolved& r = resolved_[qi];
      const core::SimSearchOptions& so = r.req.sim_search.period;
      auto t0 = Clock::now();
      const core::SimPeriodOptimum opt =
          core::sim_optimal_period(r.sys, *q.procs, so, nullptr);
      const double solve_s = seconds_since(t0);
      const core::Pattern pattern{opt.period, *q.procs};
      const double t_rep = replica_seconds(
          r.sys, pattern, so.replication.patterns_per_replica, 64);
      self_ms.push_back(
          (solve_s - static_cast<double>(opt.total_replicas) * t_rep) * 1e3);
      t0 = Clock::now();
      const sim::ReplicationResult call = sim::simulate_overhead_adaptive(
          r.sys, pattern, so.replication, so.adaptive, nullptr);
      const double call_s = seconds_since(t0);
      rounds.push_back(call.rounds);
      runner_share.push_back(
          1.0 - static_cast<double>(call.overhead.count) * t_rep / call_s);
    }
    report.add("sim_optimizer.self_ms_per_solve", median(self_ms), "ms",
               "computed, " + base_count(self_ms.size()));
    report.add("runner.rounds_per_call", median(rounds), "count",
               base_count(rounds.size()));
    report.add("runner.self_share", median(runner_share), "ratio",
               "computed, " + base_count(runner_share.size()));

    // Parallel efficiency t(1) / (nproc * t(nproc)) on a fixed batch.
    std::vector<std::size_t> batch;
    for (const std::size_t qi : order_) {
      if (!catalog_[qi].exponential() && batch.size() < 10) batch.push_back(qi);
    }
    const auto time_batch = [&](exec::ThreadPool& pool) {
      const auto t0 = Clock::now();
      for (const std::size_t qi : batch) {
        (void)entry_record(resolved_[qi], &pool);
      }
      return seconds_since(t0);
    };
    exec::ThreadPool one(1);
    const double t1 = time_batch(one);
    const double tn = time_batch(*pool_);
    const double n = static_cast<double>(pool_->size());
    report.add("exec.parallel_eff.optimize", t1 / (n * tn), "ratio",
               base_ratio(t1, n * tn));
  }

 private:
  struct Answer {
    std::string text;
    bool rebuilt_only = false;
  };

  /// Stores the first answer to a question; later answers must match.
  bool remember(std::size_t qi, const std::string& text, bool rebuilt) {
    const auto it = answers_.find(qi);
    if (it == answers_.end()) {
      answers_.emplace(qi, Answer{text, rebuilt});
      return true;
    }
    if (!rebuilt) it->second.rebuilt_only = false;
    return it->second.text == text;
  }

  unsigned threads_;
  std::vector<Question> catalog_;
  std::vector<std::size_t> order_;
  std::vector<Resolved> resolved_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::map<std::size_t, Answer> answers_;
  std::vector<SolveStats> solve_stats_;
  std::uint64_t op_id_ = 1;
};

}  // namespace

std::unique_ptr<Workload> make_optimize(std::uint64_t seed, unsigned threads) {
  return std::make_unique<OptimizeWorkload>(seed, threads);
}

}  // namespace pb
