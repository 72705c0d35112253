#include "ayd/core/sim_optimizer.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "ayd/stats/ci.hpp"

namespace ayd::core {

namespace {

/// Level of the coarse scan's first-round screen. It guards a decision
/// that is never revisited, so it is far stricter than the sim::kCiLevel
/// of the golden-section stop (theory.md §5.4).
constexpr double kScreenLevel = 0.999;

/// Golden section's stopping rule: the bracket width on log T, and the
/// step cap.
constexpr double kXTol = 5e-3;
constexpr int kGoldenSteps = 32;

/// Factor between neighbouring rungs of the P ladder.
constexpr double kLadderRatio = 1.5;

/// One simulated candidate: position on log T, its adaptive-replication
/// summary, and the per-replica overheads (kept for the paired tests —
/// common random numbers make replica i comparable across candidates).
/// A retired candidate stopped after its first round: it stays a bracket
/// edge, but is never the argmin.
struct Candidate {
  double log_t = 0.0;
  stats::Summary overhead;
  std::vector<double> replica_overheads;
  bool ci_converged = false;
  bool retired = false;
};

std::vector<double> replica_overheads(const sim::AdaptiveRun& run) {
  std::vector<double> out;
  out.reserve(run.outcomes().size());
  for (const sim::ReplicaOutcome& o : run.outcomes()) {
    out.push_back(o.overhead);
  }
  return out;
}

/// Paired comparison under common random numbers: the Student-t CI at
/// `level` of the per-replica differences a_i − b_i over the common
/// replica prefix (at least two replicas).
stats::ConfidenceInterval paired_difference_ci(const std::vector<double>& a,
                                               const std::vector<double>& b,
                                               double level) {
  const std::size_t n = std::min(a.size(), b.size());
  stats::RunningStats diff;
  for (std::size_t i = 0; i < n; ++i) diff.add(a[i] - b[i]);
  return stats::mean_ci_student(diff, level);
}

/// Shared evaluation context: counts candidates and replicas, and steps
/// candidates together (evaluate_all), so the pool splits each round's
/// replicas across every candidate still running.
struct SearchContext {
  SearchContext(const model::System& s, double p, const SimSearchOptions& o,
                exec::ThreadPool* pl)
      : sys(s), procs(p), opt(o), pool(pl), replication(o.replication) {
    // Search-local CRN pool: candidate periods differ only in T, which
    // the pool is keyed independently of, so one pool serves every
    // candidate — variate generation is paid once per search, and the
    // common random numbers the paired tests already relied on become
    // literal shared memory instead of recomputed transforms. Results
    // are bit-identical to per-candidate sampling under the scalar tier
    // (sim/variate_pool.hpp). A caller-supplied sweep-level pool wins.
    if (replication.shared_units == nullptr) {
      owned_pool = sim::crn_pool(sys, replication.seed);
      replication.shared_units = owned_pool.get();
    }
  }

  const model::System& sys;
  double procs;
  const SimSearchOptions& opt;
  exec::ThreadPool* pool;
  /// One outcome arena per candidate of an evaluate_all call, reused.
  std::vector<sim::ReplicationScratch> arenas;
  std::shared_ptr<sim::UnitVariatePool> owned_pool;
  sim::ReplicationOptions replication;
  int evaluations = 0;
  int retired = 0;
  std::uint64_t total_replicas = 0;

  /// One candidate.
  Candidate evaluate(double log_t) {
    return std::move(evaluate_all({log_t}, /*screen=*/false).front());
  }

  /// Independent candidates (ascending log T), returned and counted in
  /// input order. Every round steps the candidates still running together
  /// (sim::AdaptiveRun::step_together), so each pool task runs all of
  /// them on its share of the round's replicas; a candidate's summary is
  /// the bits of evaluating it alone.
  ///
  /// With `screen`, the candidates race: after the first round, each that
  /// has rounds left is retired when its paired per-replica differences
  /// against the round's leader (the lowest first-round mean) have a
  /// kScreenLevel Student-t CI strictly above 0. Only the survivors run
  /// on, each on its unchanged schedule.
  ///
  /// A failure reports the smallest period that failed in the earliest
  /// round with a failure.
  std::vector<Candidate> evaluate_all(const std::vector<double>& log_ts,
                                      bool screen) {
    const std::size_t n = log_ts.size();
    if (arenas.size() < n) arenas.resize(n);
    std::vector<sim::AdaptiveRun> runs;
    runs.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      runs.emplace_back(sys, core::Pattern{std::exp(log_ts[k]), procs},
                        replication, opt.adaptive, &arenas[k]);
    }

    std::vector<char> retire(n, 0);
    std::vector<sim::AdaptiveRun*> live;
    for (sim::AdaptiveRun& run : runs) live.push_back(&run);
    for (bool first_round = true; !live.empty(); first_round = false) {
      sim::AdaptiveRun::step_together(live, pool);
      if (first_round && screen) {
        std::vector<double> means(n);
        for (std::size_t k = 0; k < n; ++k) {
          means[k] = runs[k].result().overhead.mean;
        }
        const auto leader = static_cast<std::size_t>(
            std::min_element(means.begin(), means.end()) - means.begin());
        const std::vector<double> lead = replica_overheads(runs[leader]);
        for (std::size_t k = 0; k < n; ++k) {
          retire[k] = k != leader && !runs[k].done() &&
                      paired_difference_ci(replica_overheads(runs[k]), lead,
                                           kScreenLevel)
                              .lo > 0.0;
        }
      }
      live.clear();
      for (std::size_t k = 0; k < n; ++k) {
        if (retire[k] == 0 && !runs[k].done()) live.push_back(&runs[k]);
      }
    }

    std::vector<Candidate> out;
    out.reserve(n);
    for (std::size_t k = 0; k < n; ++k) {
      out.push_back(candidate(log_ts[k], runs[k], retire[k] != 0));
      ++evaluations;
      retired += retire[k];
      total_replicas += out.back().overhead.count;
    }
    return out;
  }

  /// The candidate a run stopped at.
  static Candidate candidate(double log_t, const sim::AdaptiveRun& run,
                             bool retire) {
    const sim::ReplicationResult res = run.result();
    Candidate c;
    c.log_t = log_t;
    c.overhead = res.overhead;
    c.ci_converged = res.ci_converged;
    c.retired = retire;
    if (!retire) c.replica_overheads = replica_overheads(run);
    return c;
  }
};

/// True when the paired CI of two candidates contains 0 — they are
/// statistically indistinguishable at sim::kCiLevel, so preferring one
/// mean over the other would be noise-fitting.
bool indistinguishable(const Candidate& a, const Candidate& b) {
  if (std::min(a.replica_overheads.size(), b.replica_overheads.size()) < 2) {
    return false;
  }
  return paired_difference_ci(a.replica_overheads, b.replica_overheads,
                              sim::kCiLevel)
      .contains(0.0);
}

}  // namespace

SimPeriodOptimum sim_optimal_period(const model::System& sys, double procs,
                                    const SimSearchOptions& opt,
                                    exec::ThreadPool* pool) {
  // The exponential-assumption optimum seeds the search (core's closed
  // forms ignore the distribution shape by construction); it checks
  // `procs`.
  const PeriodOptimum seed = optimal_period(sys, procs);
  SimPeriodOptimum out;
  out.seed_period = seed.period;

  SearchContext ctx(sys, procs, opt, pool);

  // Exponential distributions are exactly the regime of Proposition 1:
  // answer with the closed-form optimiser and only spend simulation
  // budget on attaching an honest CI at that optimum. Extended systems
  // never qualify — a correlated world's interruption process is not
  // the i.i.d. per-node Poisson the closed form prices, even when every
  // source is exponential.
  if (sys.failure().dist().memoryless() && !sys.extended() &&
      !opt.force_search) {
    out.period = seed.period;
    out.used_closed_form = true;
    out.converged = seed.converged;
    out.at_boundary = seed.at_boundary;
    const Candidate at_opt = ctx.evaluate(std::log(seed.period));
    out.overhead = at_opt.overhead;
    out.ci_converged = at_opt.ci_converged;
    out.evaluations = ctx.evaluations;
    out.total_replicas = ctx.total_replicas;
    return out;
  }

  const double dom_lo = std::log(kMinPeriod);
  const double dom_hi = std::log(kMaxPeriod);
  // Warm starts (the online re-planner passing the previously deployed
  // optimum) center a tighter bracket on the hint; the edge expansion
  // below walks out of it when the hint has gone stale.
  const bool warm = opt.warm_start > 0.0;
  const double span = std::log(warm ? kWarmBracketSpan : kColdBracketSpan);
  const double center = warm ? opt.warm_start : seed.period;
  const double center_x = std::clamp(std::log(center), dom_lo, dom_hi);
  double lo = std::max(dom_lo, center_x - span);
  double hi = std::min(dom_hi, center_x + span);

  // Coarse scan: log-spaced candidates across the bracket, extended
  // outward (same spacing) while the best sits on a bracket edge that is
  // not a domain edge — the non-exponential optimum occasionally drifts
  // past the bracket for extreme shapes.
  const double step = (hi - lo) / static_cast<double>(kCoarsePoints - 1);
  std::vector<double> coarse(static_cast<std::size_t>(kCoarsePoints));
  for (std::size_t i = 0; i < coarse.size(); ++i) {
    coarse[i] = lo + step * static_cast<double>(i);
  }
  // Only a cold scan races. A warm bracket is narrower and sits on the
  // flat bottom of the surface, where one round rarely separates
  // candidates (about 0.1 retirements per warm search at `ayd watch`'s
  // settings, against 3.6 per cold scan of the `optimize` benchmark).
  std::vector<Candidate> scan = ctx.evaluate_all(coarse, /*screen=*/!warm);
  const auto best_index = [&scan]() {
    std::size_t best = scan.size();
    for (std::size_t i = 0; i < scan.size(); ++i) {
      if (!scan[i].retired &&
          (best == scan.size() ||
           scan[i].overhead.mean < scan[best].overhead.mean)) {
        best = i;
      }
    }
    return best;
  };
  for (int expansion = 0; expansion < 8; ++expansion) {
    const std::size_t best = best_index();
    if (best == 0 && scan.front().log_t - step >= dom_lo) {
      scan.insert(scan.begin(), ctx.evaluate(scan.front().log_t - step));
    } else if (best + 1 == scan.size() &&
               scan.back().log_t + step <= dom_hi) {
      scan.push_back(ctx.evaluate(scan.back().log_t + step));
    } else {
      break;
    }
  }

  // Golden-section refinement inside the best candidate's neighbourhood.
  const std::size_t best = best_index();
  double a = best > 0 ? scan[best - 1].log_t
                      : std::max(dom_lo, scan[best].log_t - step);
  double b = best + 1 < scan.size() ? scan[best + 1].log_t
                                    : std::min(dom_hi, scan[best].log_t + step);
  Candidate incumbent = std::move(scan[best]);

  constexpr double kGolden = 0.6180339887498949;  // (sqrt(5) - 1) / 2
  std::vector<Candidate> pair =
      ctx.evaluate_all({b - kGolden * (b - a), a + kGolden * (b - a)},
                       /*screen=*/false);
  Candidate c = std::move(pair[0]);
  Candidate d = std::move(pair[1]);
  for (int iter = 0; iter < kGoldenSteps; ++iter) {
    if (b - a <= kXTol) {
      out.converged = true;
      break;
    }
    if (indistinguishable(c, d)) {
      // The two interior candidates cannot be told apart at this noise
      // level: localising further would fit the Monte-Carlo noise, not
      // the objective. Report the noise floor instead.
      out.ci_limited = true;
      out.converged = true;
      break;
    }
    if (c.overhead.mean < d.overhead.mean) {
      b = d.log_t;
      d = std::move(c);
      c = ctx.evaluate(b - kGolden * (b - a));
    } else {
      a = c.log_t;
      c = std::move(d);
      d = ctx.evaluate(a + kGolden * (b - a));
    }
  }
  if (b - a <= kXTol) out.converged = true;

  if (c.overhead.mean < incumbent.overhead.mean) incumbent = std::move(c);
  if (d.overhead.mean < incumbent.overhead.mean) incumbent = std::move(d);

  out.period = std::exp(incumbent.log_t);
  out.overhead = incumbent.overhead;
  out.ci_converged = incumbent.ci_converged;
  out.at_boundary = incumbent.log_t <= dom_lo + 1e-12 ||
                    incumbent.log_t >= dom_hi - 1e-12;
  out.evaluations = ctx.evaluations;
  out.retired = ctx.retired;
  out.total_replicas = ctx.total_replicas;
  return out;
}

SimAllocationOptimum sim_optimal_allocation(
    const model::System& sys, const SimAllocationSearchOptions& opt,
    exec::ThreadPool* pool) {
  // Seed P from the exponential-assumption joint optimum (which checks
  // the P domain).
  AllocationSearchOptions aopt;
  aopt.max_procs = opt.max_procs;
  const AllocationOptimum seed = optimal_allocation(sys, aopt);

  SimAllocationOptimum out;
  out.seed_procs = seed.procs;

  if (sys.failure().dist().memoryless() && !sys.extended() &&
      !opt.period.force_search) {
    // Exponential: the exact optimiser answers; attach a CI at (T*, P*).
    out.procs = seed.procs;
    out.period = seed.period;
    out.used_closed_form = true;
    out.converged = seed.converged;
    out.at_boundary = seed.at_boundary;
    sim::ReplicationScratch scratch;
    const sim::ReplicationResult res = sim::simulate_overhead_adaptive(
        sys, {seed.period, seed.procs}, opt.period.replication,
        opt.period.adaptive, pool, &scratch);
    out.overhead = res.overhead;
    out.ci_converged = res.ci_converged;
    out.outer_evaluations = 1;
    out.total_replicas = res.overhead.count;
    return out;
  }

  // Geometric candidate ladder around the seed, rounded to integers.
  std::vector<double> rungs;
  for (int j = -kLadderRungsPerSide; j <= kLadderRungsPerSide; ++j) {
    const double p =
        std::clamp(std::round(seed.procs * std::pow(kLadderRatio, j)),
                   kMinProcs, opt.max_procs);
    if (rungs.empty() || rungs.back() != p) rungs.push_back(p);
  }

  // One CRN pool across the whole ladder: the allocation is not part of
  // the pool key either, so the inner searches at every rung share it
  // (each rung's SearchContext sees shared_units set and keeps it).
  SimSearchOptions period_opt = opt.period;
  std::shared_ptr<sim::UnitVariatePool> ladder_pool;
  if (period_opt.replication.shared_units == nullptr) {
    ladder_pool = sim::crn_pool(sys, period_opt.replication.seed);
    period_opt.replication.shared_units = ladder_pool.get();
  }

  // The rungs' period searches run concurrently, largest P (the most
  // failures, the longest search) first, each serially on its worker
  // (its own parallel calls come from a pool worker, so they run inline).
  // Reduced in rung order below.
  const std::size_t n = rungs.size();
  std::vector<SimPeriodOptimum> inner(n);
  exec::parallel_for_descending(pool, n, [&](std::size_t k) {
    inner[k] = sim_optimal_period(sys, rungs[k], period_opt, pool);
  });

  out.converged = true;
  std::size_t best = 0;
  for (std::size_t i = 0; i < n; ++i) {
    out.total_replicas += inner[i].total_replicas;
    out.outer_evaluations += 1;
    if (!inner[i].converged) out.converged = false;
    if (inner[i].overhead.mean < inner[best].overhead.mean) best = i;
  }

  out.procs = rungs[best];
  out.period = inner[best].period;
  out.overhead = inner[best].overhead;
  out.ci_converged = inner[best].ci_converged;
  out.at_boundary =
      rungs.size() > 1 && (best == 0 || best + 1 == rungs.size());
  out.period_at_boundary = inner[best].at_boundary;
  return out;
}

}  // namespace ayd::core
