#include "ayd/sim/segmented.hpp"

#include <limits>
#include <type_traits>
#include <utility>

#include "ayd/rng/simd.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// `pattern`, once it passed core::validate.
template <class Pattern>
const Pattern& validated(const Pattern& pattern) {
  core::validate(pattern);
  return pattern;
}

}  // namespace

namespace detail {

SegmentedWorld::SegmentedWorld(const model::System& sys,
                               const core::Pattern& pattern)
    : SegmentedWorld(sys, validated(pattern).period, pattern.procs, 1) {}

SegmentedWorld::SegmentedWorld(const core::SegmentedProtocol& sys,
                               const core::SegmentedPattern& pattern)
    : SegmentedWorld(sys, validated(pattern).period, pattern.procs,
                     pattern.segments) {}

SegmentedWorld::SegmentedWorld(const core::SegmentedProtocol& protocol,
                               double period, double procs, int segments)
    : period(period),
      procs(procs),
      segments(segments),
      two_level(protocol.level1() != nullptr),
      work(period / segments),
      verify(protocol.base().verification_cost(procs)),
      checkpoint(protocol.base().checkpoint_cost(procs)),
      recovery(protocol.base().recovery_cost(procs)),
      pfs_recovery(recovery),
      downtime(protocol.base().downtime()) {
  const model::System& sys = protocol.base();
  const model::CorrelatedSpec* ext = sys.extension();
  if (two_level) level1 = protocol.level1()->cost(procs);
  plain = ext == nullptr && segments == 1 && !two_level;
  unit_plain = plain && crn_eligible(sys);
  const bool shock = ext != nullptr && ext->shock.has_value();

  // A zero-rate source never strikes and draws nothing, so it is left out.
  const auto add = [&](const model::FailureDistSpec& spec, double rate,
                       bool is_shock) {
    auto dist = spec.instantiate(rate);
    if (dist->rate() <= 0.0) return;
    total_fail_rate += dist->rate();
    fail_sources.push_back({std::move(dist), is_shock});
  };
  // Per-component (individual) sources carry the (1-rho) remainder of
  // the fail-stop intensity, split across the heterogeneity classes
  // (one class at the base law otherwise, the whole intensity for a
  // plain System).
  const double rho = shock ? ext->shock->correlation : 0.0;
  const double individual = (1.0 - rho) * sys.fail_stop_rate(procs);
  if (ext != nullptr && ext->heterogeneity.has_value()) {
    for (const model::ComponentGroup& g : ext->heterogeneity->groups) {
      add(g.dist, individual * g.share * g.rate_scale, false);
    }
  } else {
    add(sys.failure().dist(), individual, false);
  }
  // The shock stream, last in draw order. Its rate is per platform, not
  // per processor (ShockSpec::shock_rate).
  if (shock) {
    add(ext->shock->dist,
        ext->shock->shock_rate(sys.failure().lambda_ind(),
                               sys.failure().fail_stop_fraction()),
        true);
  }

  silent = sys.failure().dist().instantiate(sys.silent_rate(procs));
  if (shock && ext->shock->pfs_penalty != 1.0) {
    pfs_recovery = ext->shock->pfs_recovery(sys.costs().recovery).cost(procs);
  }
}

double SegmentedWorld::try_window(int from) const {
  const int last = segments - 1;
  double e = 0.0;
  for (int i = from; i <= last; ++i) {
    e = (e + work) + verify;
    if (i < last && !two_level) continue;
    e = e + (i < last ? level1 : checkpoint);
  }
  return e;
}

void SegmentedWorld::throw_diverged() const {
  sim::detail::throw_diverged(period, procs, segments, total_fail_rate,
                              silent->rate());
}

}  // namespace detail

// --- SimulationPlan --------------------------------------------------------

SimulationPlan::SimulationPlan(const model::System& sys,
                               const core::Pattern& pattern)
    : SimulationPlan(detail::SegmentedWorld(sys, pattern)) {}

SimulationPlan::SimulationPlan(const core::SegmentedProtocol& sys,
                               const core::SegmentedPattern& pattern)
    : SimulationPlan(detail::SegmentedWorld(sys, pattern)) {}

SimulationPlan::SimulationPlan(detail::SegmentedWorld world)
    : world_(std::move(world)) {
  const detail::SegmentedWorld& w = world_;
  for (const detail::FailSource& src : w.fail_sources) {
    fail_draws_.push_back(
        {src.dist.get(), src.dist->unit_samplable(), src.is_shock});
  }
  // Window rows: the try from each start segment a try can begin at (a
  // two-level segment retry starts mid-pattern), then R, R_pfs and L. A
  // row the world never reaches (R_pfs without a PFS tier, L without
  // level-1 checkpoints) is left at 0.
  const auto add_row = [&](double window, bool reached) {
    for (const SourceDraw& src : fail_draws_) {
      fail_thresholds_.push_back(src.filtered && reached
                                     ? safe_word_threshold(*src.dist, window)
                                     : 0);
    }
  };
  recovery_row_ = w.two_level ? static_cast<std::size_t>(w.segments) : 1;
  fail_thresholds_.reserve((recovery_row_ + 3) * fail_draws_.size());
  for (std::size_t from = 0; from < recovery_row_; ++from) {
    add_row(w.try_window(static_cast<int>(from)), true);
  }
  add_row(w.recovery, true);
  add_row(w.pfs_recovery, w.tiered());
  add_row(w.level1, w.two_level);
  if (w.silent_active()) {
    silent_draw_ = {w.silent.get(), w.silent->unit_samplable(), false};
    if (silent_draw_.filtered) {
      silent_threshold_ = safe_word_threshold(*w.silent, w.work);
    }
  }
  if (w.unit_plain) {
    fail_law_ = UnitLaw(fail_draws_.empty() ? nullptr : fail_draws_[0].dist);
    silent_law_ = UnitLaw(silent_draw_.dist);
  }
}

// --- SegmentedFastSimulator ----------------------------------------------

void SegmentedFastSimulator::set_unit_cursor(UnitVariatePool::Cursor* cursor) {
  require_crn_pool(cursor == nullptr || plan_->world().unit_plain);
  pool_cursor_ = cursor;
}

namespace {

/// The stream's engine, copied so the common draw (one word, one integer
/// compare) runs in registers; a draw through sample() syncs the stream
/// around the call, and the destructor writes the state back even if the
/// divergence bound throws.
struct EngineCopy {
  rng::Xoshiro256 eng;
  rng::RngStream& stream;

  explicit EngineCopy(rng::RngStream& rng) : eng(rng.engine()), stream(rng) {}
  EngineCopy(const EngineCopy&) = delete;
  EngineCopy& operator=(const EngineCopy&) = delete;
  ~EngineCopy() { stream.engine() = eng; }

  /// One draw of `dist`. A threshold-filtered draw consumes the word
  /// sample() would and computes the arrival only when the word lies
  /// below `threshold`; at or above it the arrival provably lands at or
  /// beyond the window and is left at +inf, which loses every comparison
  /// the exact value would lose.
  double draw(const model::FailureDistribution& dist, bool filtered,
              std::uint64_t threshold) {
    if (filtered) {
      const std::uint64_t m = eng() >> 11;
      return m < threshold
                 ? dist.sample_value(static_cast<double>(m) * 0x1.0p-53)
                 : kInf;
    }
    stream.engine() = eng;
    const double x = dist.sample(stream);
    eng = stream.engine();
    return x;
  }
};

/// A CRN cursor walked through a local copy, so its position and chunk
/// pointer live in registers between the rare refills; the destructor
/// writes the position back even if the divergence bound throws.
struct CursorCopy {
  UnitVariatePool::Cursor cur;
  UnitVariatePool::Cursor& shared;

  explicit CursorCopy(UnitVariatePool::Cursor& c) : cur(c), shared(c) {}
  CursorCopy(const CursorCopy&) = delete;
  CursorCopy& operator=(const CursorCopy&) = delete;
  ~CursorCopy() { shared = cur; }
};

/// The wall clock and window bounds of the time-space sources (the stream
/// and the exact pool walk): the world's costs copied into the source, and
/// the pattern's wall clock as a running sum in the order its time
/// elapses.
struct TimeClock {
  double work, verify, checkpoint, level1, recovery, pfs_recovery, downtime;
  double wall = 0.0;

  explicit TimeClock(const detail::SegmentedWorld& w)
      : work(w.work),
        verify(w.verify),
        checkpoint(w.checkpoint),
        level1(w.level1),
        recovery(w.recovery),
        pfs_recovery(w.pfs_recovery),
        downtime(w.downtime) {}

  [[nodiscard]] double silent_window() const { return work; }
  [[nodiscard]] double verified(double e) const { return (e + work) + verify; }
  [[nodiscard]] double stored(double e, bool mid) const {
    return e + (mid ? level1 : checkpoint);
  }
  [[nodiscard]] double recovery_window(bool pfs) const {
    return pfs ? pfs_recovery : recovery;
  }
  [[nodiscard]] static bool masks(double e, double s, double x) {
    return e + s < x;
  }
  void strike(double x) { wall += x + downtime; }
  void charge(double t) { wall += t; }
  [[nodiscard]] double finish(const PatternStats&) {
    const double w = wall;
    wall = 0.0;
    return w;
  }
};

}  // namespace

/// How from_unit scales a unit variate, devirtualized for the pool walks.
/// The expressions reproduce the scalar from_unit bit-for-bit: the
/// Weibull multiplies by its scale (from_unit(1.0) is the scale exactly),
/// the exponential divides by its rate, and the lognormal stays a virtual
/// call (its scaling is an exp, not a constant).
SimulationPlan::UnitLaw::UnitLaw(const model::FailureDistribution* d)
    : dist(d) {
  if (d == nullptr) return;
  if (d->kind() == model::FailureDistKind::kWeibull) {
    scaling = Scaling::kLinear;
    factor = d->from_unit(1.0);
  } else if (d->kind() == model::FailureDistKind::kExponential) {
    scaling = Scaling::kDivide;
    factor = d->rate();
  }
}

/// A constant scaling (or none): the unit-space walk can rescale the
/// windows once.
bool SimulationPlan::UnitLaw::linear() const {
  return dist == nullptr || scaling != Scaling::kVirtual;
}

double SimulationPlan::UnitLaw::arrival(double z) const {
  switch (scaling) {
    case Scaling::kLinear: return factor * z;
    case Scaling::kDivide: return z / factor;
    case Scaling::kVirtual: break;
  }
  return dist->from_unit(z);
}

/// `window` in unit space: z < bound(w) decides what arrival(z) < w
/// decides, up to one rounding. An inactive law's bound is 0, which its
/// +inf draw never undercuts.
double SimulationPlan::UnitLaw::bound(double window) const {
  if (dist == nullptr) return 0.0;
  return scaling == Scaling::kLinear ? window / factor : window * factor;
}

// Draw sources of the machine below. Each is a local of the machine, so
// the compiler keeps the engine or cursor state, the laws and every
// constant in registers. A source supplies, in its own draw space (time,
// or unit variates for UnitPool):
//   draw_fail(row)   the earliest fail-stop arrival over the active
//                    sources against window row `row` (+inf when none is
//                    active, or when every arrival provably lies beyond
//                    the window), with `shock` set when the shock stream
//                    won;
//   draw_silent()    the segment's silent arrival;
//   silent_window(), verified(e), stored(e, mid), recovery_window(pfs),
//   masks(e, s, x)   the bounds the decisions compare against, and whether
//                    the silent arrival precedes the fail-stop;
// plus the pattern's wall clock: strike(x) (a fail-stop at offset x, then
// the downtime), charge(t), and finish(stats), which returns the
// pattern's wall time and restarts the clock.

/// The stream. On the plain shape every active law is unit-samplable, so
/// every draw is filtered, and the one fail law, its two thresholds (the
/// attempt window T+V+C and R) and the silent law are copied into the
/// source; other shapes walk the plan's source rows.
template <bool kPlain>
struct SegmentedFastSimulator::Stream : EngineCopy, TimeClock {
  const SourceDraw* fails;
  std::size_t sources;
  const std::uint64_t* thresholds;
  SourceDraw fail_one;
  std::uint64_t attempt_threshold = 0, recovery_threshold = 0;
  SourceDraw silent;
  std::uint64_t silent_threshold;
  bool shock = false;

  Stream(const SimulationPlan& plan, rng::RngStream& rng)
      : EngineCopy(rng),
        TimeClock(plan.world_),
        fails(plan.fail_draws_.data()),
        sources(plan.fail_draws_.size()),
        thresholds(plan.fail_thresholds_.data()),
        silent(plan.silent_draw_),
        silent_threshold(plan.silent_threshold_) {
    if (kPlain && sources == 1) {
      fail_one = fails[0];
      attempt_threshold = thresholds[0];
      recovery_threshold = thresholds[plan.recovery_row_];
    }
  }

  double draw_fail(std::size_t row) {
    if constexpr (kPlain) {
      if (fail_one.dist == nullptr) return kInf;
      return draw(*fail_one.dist, true,
                  row == 0 ? attempt_threshold : recovery_threshold);
    }
    // Strict < keeps the first source on a tie (ties have measure zero
    // for the analytic laws). A filtered draw beyond the window can
    // neither win a strike nor change the winner of one.
    const std::uint64_t* thr = thresholds + row * sources;
    double best = kInf;
    shock = false;
    for (std::size_t j = 0; j < sources; ++j) {
      const double a = draw(*fails[j].dist, fails[j].filtered, thr[j]);
      if (a < best) {
        best = a;
        shock = fails[j].is_shock;
      }
    }
    return best;
  }
  double draw_silent() {
    return silent.dist != nullptr
               ? draw(*silent.dist, kPlain || silent.filtered, silent_threshold)
               : kInf;
  }
};

/// The CRN pool walks (plain shape only): the unit transforms were paid
/// once, in the shared pool, so a draw is one cursor read.
struct SegmentedFastSimulator::PoolWalk : CursorCopy {
  UnitLaw fail, silent;
  static constexpr bool shock = false;

  PoolWalk(const SimulationPlan& plan, UnitVariatePool::Cursor& cursor)
      : CursorCopy(cursor), fail(plan.fail_law_), silent(plan.silent_law_) {}
};

/// The CRN pool, exact: each arrival is the cheap from_unit scaling of a
/// pooled variate. Computing every arrival (no threshold filter) is
/// bit-identical to the threshold-filtered stream in the scalar tier: the
/// filter only suppresses values that lose every comparison they appear
/// in, and here the value is nearly free.
struct SegmentedFastSimulator::ExactPool : PoolWalk, TimeClock {
  ExactPool(const SimulationPlan& plan, UnitVariatePool::Cursor& cursor)
      : PoolWalk(plan, cursor), TimeClock(plan.world_) {}

  double draw_fail(std::size_t) {
    return fail.dist != nullptr ? fail.arrival(cur.next()) : kInf;
  }
  double draw_silent() {
    return silent.dist != nullptr ? silent.arrival(cur.next()) : kInf;
  }
};

/// The CRN pool in unit space (SIMD tier only). The windows are rescaled
/// into unit space once (UnitLaw::bound), so a draw is a raw sequential
/// read and a compare. Arrival times are materialized only where two
/// channels are compared. The wall clock decomposes into counter-weighted
/// constants plus the sum of the consumed fail-stop arrivals: every fail
/// stop adds its arrival and one downtime, every non-completing attempt
/// runs one clean recovery, every detection adds T+V and the completing
/// attempt T+V+C. So the machine only sums raw unit variates and the sum
/// is scaled once per pattern. Decisions and roundings can differ from
/// the exact walk within an ulp of a bound; that freedom belongs to the
/// SIMD tier, whose results are its own golden tier — the scalar
/// reference tier never selects this.
struct SegmentedFastSimulator::UnitPool : PoolWalk {
  double t, tv, tvc, r;  ///< window bounds, in unit space
  double wall_tv, wall_tvc, wall_r, d;
  double z_sum = 0.0;

  UnitPool(const SimulationPlan& plan, UnitVariatePool::Cursor& cursor)
      : PoolWalk(plan, cursor) {
    const detail::SegmentedWorld& w = plan.world_;
    wall_tv = w.work + w.verify;
    wall_tvc = wall_tv + w.checkpoint;
    wall_r = w.recovery;
    d = w.downtime;
    t = silent.bound(w.work);
    tv = fail.bound(wall_tv);
    tvc = fail.bound(wall_tvc);
    r = fail.bound(wall_r);
  }

  double draw_fail(std::size_t) {
    return fail.dist != nullptr ? cur.next() : kInf;
  }
  double draw_silent() { return silent.dist != nullptr ? cur.next() : kInf; }
  [[nodiscard]] double silent_window() const { return t; }
  [[nodiscard]] double verified(double) const { return tv; }
  [[nodiscard]] double stored(double, bool) const { return tvc; }
  [[nodiscard]] double recovery_window(bool) const { return r; }
  [[nodiscard]] bool masks(double, double s, double x) const {
    return silent.arrival(s) < fail.arrival(x);
  }
  void strike(double x) { z_sum += x; }
  static void charge(double) {}
  [[nodiscard]] double finish(const PatternStats& st) {
    // Without a fail-stop channel the sum is empty and its scaling
    // undefined (an inactive channel has no factor).
    const double w =
        (fail.dist != nullptr ? fail.arrival(z_sum) : 0.0) +
        d * static_cast<double>(st.fail_stop_errors) +
        wall_r * static_cast<double>(st.attempts - 1) +
        wall_tv * static_cast<double>(st.silent_detections) + wall_tvc;
    z_sum = 0.0;
    return w;
  }
};

template <bool kPlain, class Source, class... Args>
PatternStats SegmentedFastSimulator::run(std::size_t n, Args&... args) const {
  const SimulationPlan& plan = *plan_;
  Source src(plan, args...);
  const detail::SegmentedWorld& w = plan.world_;
  // The shape: compile-time constants on the plain shape, so its try is
  // one segment with no level-1 store and its chains never reach R_pfs.
  const int last = kPlain ? 0 : w.segments - 1;
  const bool two_level = !kPlain && w.two_level;
  const bool tiered = !kPlain && w.tiered();
  const std::size_t recovery_row = kPlain ? 1 : plan.recovery_row_;
  PatternStats totals;

  for (std::size_t p = 0; p < n; ++p) {
    PatternStats st;
    std::uint64_t retries = 0;  // two-level segment retries
    int from = 0;               // the segment the next try starts at
    bool attempt = true;        // the next try is a pattern attempt
    for (;;) {
      if (st.attempts + retries >= kMaxPatternAttempts) w.throw_diverged();
      ++(attempt ? st.attempts : retries);

      // One try from segment `from`: a single fail-stop arrival covers
      // the rest of the pattern (window row `from`), a fresh silent
      // arrival each segment's work. Offsets accumulate from the try
      // start in phase order (SegmentedWorld::try_window). It ends with
      // the pattern stored, a fail-stop at offset y, or a silent error
      // detected at the end of segment i.
      double y = src.draw_fail(static_cast<std::size_t>(from));
      bool shock = src.shock;  // the rollback starts from a shock strike
      bool struck = false;
      bool detected = false;
      double e = 0.0;
      int i = from;
      for (; i <= last; ++i) {
        const double s = src.draw_silent();
        const bool silent = s < src.silent_window();
        const double verified = src.verified(e);
        if (y < verified) {
          if (silent && src.masks(e, s, y)) ++st.masked_silent;
          struck = true;
          break;
        }
        if (silent) {
          ++st.silent_detections;
          src.charge(verified);
          detected = true;
          break;
        }
        e = verified;
        if (i < last && !two_level) continue;
        const double stored = src.stored(e, i < last);
        if (y < stored) {
          struck = true;
          break;
        }
        e = stored;
      }
      if (!struck && !detected) {
        src.charge(e);
        break;
      }

      // The rollback. A detection under two-level tries one level-1
      // recovery back to the segment start (a fail-stop during it
      // escalates); VC and multi roll the pattern back through an R chain
      // that starts on the burst-buffer tier.
      if (detected) {
        shock = false;
        if (two_level) {
          y = src.draw_fail(recovery_row + 2);
          if (!(y < w.level1)) {
            src.charge(w.level1);
            from = i;
            attempt = false;
            continue;
          }
          ++st.recovery_fail_stops;
          shock = src.shock;
          struck = true;
        }
      }
      if (struck) {
        ++st.fail_stop_errors;
        if (shock) ++st.shock_errors;
        src.strike(y);
      }
      // The R chain: recovery tries until one completes without a
      // fail-stop. The PFS tier is sticky in the chain.
      bool pfs = tiered && shock;
      for (;;) {
        y = src.draw_fail(recovery_row + (pfs ? 1 : 0));
        if (!(y < src.recovery_window(pfs))) {
          src.charge(src.recovery_window(pfs));
          break;
        }
        if (st.fail_stop_errors >= kMaxPatternAttempts) w.throw_diverged();
        ++st.fail_stop_errors;
        ++st.recovery_fail_stops;
        if (src.shock) {
          ++st.shock_errors;
          pfs = pfs || tiered;
        }
        src.strike(y);
      }
      from = 0;
      attempt = true;
    }
    st.wall_time = src.finish(st);
    totals.merge(st);
  }
  return totals;
}

PatternStats SegmentedFastSimulator::simulate_replica(rng::RngStream& rng,
                                                      std::size_t n) {
  const SimulationPlan& plan = *plan_;
  if (!plan.world_.unit_plain) return run<false, Stream<false>>(n, rng);
  if (pool_cursor_ == nullptr) return run<true, Stream<true>>(n, rng);
  // Under a SIMD tier the unit-space walk is preferred: it makes the same
  // decisions up to the rounding of the rescaled window bounds, which is
  // exactly the freedom the SIMD golden tier declares. The scalar
  // reference tier must stay bit-identical to stream sampling
  // (tests/engine_crn_test.cpp), so it keeps the exact walk.
  if (rng::simd::active_tier() != rng::simd::Tier::kScalar &&
      plan.fail_law_.linear() && plan.silent_law_.linear()) {
    return run<true, UnitPool>(n, *pool_cursor_);
  }
  return run<true, ExactPool>(n, *pool_cursor_);
}

// --- SegmentedDesSimulator -----------------------------------------------

void SegmentedDesSimulator::set_unit_cursor(UnitVariatePool::Cursor* cursor) {
  require_crn_pool(cursor == nullptr || world_.unit_plain);
  pool_cursor_ = cursor;
}

inline double SegmentedDesSimulator::draw_plain(
    const model::FailureDistribution& dist, rng::RngStream& rng) {
  // Pool (CRN) mode: the unit variate comes from the shared sequence and
  // the stream is left untouched; only the cheap scaling runs here.
  if (pool_cursor_ != nullptr) return dist.from_unit(pool_cursor_->next());
  if (unit_src_ == nullptr) return dist.sample(rng);
  // The block: uniforms leave the stream in draw order, the expensive
  // inversion runs in bulk (tier-dispatched: the scalar reference
  // transform or the vectorized kernels), and each draw is
  // dist.from_unit(z), the value dist.sample() would produce under the
  // scalar tier.
  return dist.from_unit(units_.next([&](double* z, std::size_t n) {
    unit_src_->sample_units_fast(rng, z, n);
    expected_state_ = rng.engine().state();
  }));
}

PatternStats SegmentedDesSimulator::simulate_pattern(rng::RngStream& rng,
                                                     Trace* trace,
                                                     double start_time) {
  return world_.plain ? run<true>(rng, 1, trace, start_time)
                      : run<false>(rng, 1, trace, start_time);
}

PatternStats SegmentedDesSimulator::simulate_replica(rng::RngStream& rng,
                                                     std::size_t n) {
  return world_.plain ? run<true>(rng, n, nullptr, 0.0)
                      : run<false>(rng, n, nullptr, 0.0);
}

template <bool kPlain>
PatternStats SegmentedDesSimulator::run(rng::RngStream& rng, std::size_t n,
                                        Trace* trace, double start_time) {
  enum class Phase { kWork, kVerify, kCheckpoint, kRecovery, kLevel1 };

  const detail::SegmentedWorld& w = world_;
  // The shape: compile-time constants on the plain shape, whose three
  // roles live in a fixed set (pop's scan unrolls).
  const int last = kPlain ? 0 : w.segments - 1;
  const bool two_level = !kPlain && w.two_level;
  const std::size_t sources = w.fail_sources.size();
  const bool silent_on = w.silent_active();
  PendingSet<3> fixed;
  auto& pending = *[&] {
    if constexpr (kPlain) {
      return &fixed;
    } else {
      return &pending_;
    }
  }();
  // Stale-prefetch guard: buffered variates are only valid if `rng` is the
  // same stream at the same position as the last call left it.
  if (kPlain && units_.buffered() > 0 &&
      rng.engine().state() != expected_state_) {
    units_.reset();
  }
  const auto draw = [&](const model::FailureDistribution& dist) {
    if constexpr (kPlain) {
      return draw_plain(dist, rng);
    } else {
      return dist.sample(rng);
    }
  };

  // The state of the pattern in flight; every pattern starts at
  // `start_time` with an empty pending set and a fresh schedule counter.
  PatternStats stats;
  double clock = start_time;
  double phase_start = clock;
  Phase phase = Phase::kWork;
  int seg = 0;
  bool silent_struck = false;
  bool pfs_chain = false;  ///< sticky PFS tier of the current rollback chain
  std::uint64_t tries = 0;

  // Every fail source renews at each try start and each recovery try:
  // any pending arrival is cancelled and a fresh one drawn (the draw
  // always consumes its words). An arrival beyond `discard_at` — the
  // renewal window's end, computed with the same additions the phase-end
  // chain performs — can never strike, so it is discarded unscheduled.
  // Off the plain shape a tie is discarded too, matching the fast
  // interpreter's strict-< windows. On the plain shape a tie is kept, and
  // a memoryless arrival is neither redrawn nor discarded: it stays
  // pending until it strikes (class comment).
  const auto renew_fail_sources = [&](double discard_at) {
    for (std::size_t j = 0; j < sources; ++j) {
      if (kPlain && keep_arrival_ && pending.scheduled(kFailSlot + j)) {
        continue;
      }
      pending.cancel(kFailSlot + j);
      const double arrival = clock + draw(*w.fail_sources[j].dist);
      if (kPlain ? keep_arrival_ || arrival <= discard_at
                 : arrival < discard_at) {
        pending.schedule(kFailSlot + j, arrival);
      }
    }
  };
  // End of a try that starts now at segment `seg`.
  const auto try_end = [&] {
    double e = clock;
    for (int i = kPlain ? 0 : seg; i <= last; ++i) {
      e = (e + w.work) + w.verify;
      if (i < last && two_level) e = e + w.level1;
    }
    return e + w.checkpoint;
  };
  const auto begin_phase = [&](Phase next, double duration) {
    phase = next;
    phase_start = clock;
    pending.schedule(kPhaseEndSlot, clock + duration);
  };
  const auto begin_segment = [&] {
    silent_struck = false;
    begin_phase(Phase::kWork, w.work);
    if (silent_on) {
      // An arrival at or beyond the phase end never fires: the older
      // phase end pops first and cancels it.
      const double arrival = clock + draw(*w.silent);
      if (arrival < clock + w.work) pending.schedule(kSilentSlot, arrival);
    }
  };
  // A try: a pattern attempt, or a segment retry after a level-1
  // recovery. A completed recovery restored the burst buffer.
  const auto begin_try = [&](bool attempt) {
    if (tries >= kMaxPatternAttempts) w.throw_diverged();
    ++tries;
    if (attempt) {
      ++stats.attempts;
      seg = 0;
    }
    pfs_chain = false;
    begin_segment();
    renew_fail_sources(try_end());
  };
  const auto begin_recovery = [&](Phase kind, double cost) {
    begin_phase(kind, cost);
    renew_fail_sources(clock + cost);
  };
  const auto trace_phase = [&](bool wasted) {
    if (trace == nullptr) return;
    SegmentKind kind = SegmentKind::kRecovery;
    switch (phase) {
      case Phase::kWork:
        kind = wasted ? SegmentKind::kWasted : SegmentKind::kCompute;
        break;
      case Phase::kVerify: kind = SegmentKind::kVerify; break;
      case Phase::kCheckpoint: kind = SegmentKind::kCheckpoint; break;
      case Phase::kRecovery:
      case Phase::kLevel1: break;
    }
    trace->add(phase_start, clock, kind);
  };

  PatternStats totals;
  for (std::size_t p = 0; p < n; ++p) {
    stats = PatternStats{};
    clock = start_time;
    tries = 0;
    pending.reset();
    begin_try(/*attempt=*/true);

    bool stored = false;  // the pattern's final checkpoint is stored
    while (!stored) {
      const auto event = pending.pop();
      AYD_ENSURE(event.has_value(), "segmented simulation ran out of events");
      clock = event->time;

      switch (event->slot) {
        case kSilentSlot: {
          AYD_ENSURE(phase == Phase::kWork, "silent error outside computation");
          silent_struck = true;
          break;
        }

        case kPhaseEndSlot: {
          trace_phase(silent_struck);
          switch (phase) {
            case Phase::kWork:
              pending.cancel(kSilentSlot);
              begin_phase(Phase::kVerify, w.verify);
              break;
            case Phase::kVerify:
              if (silent_struck) {
                ++stats.silent_detections;
                silent_struck = false;
                // The try's pending fail arrivals die at this renewal.
                if (two_level) {
                  begin_recovery(Phase::kLevel1, w.level1);
                } else {
                  begin_recovery(Phase::kRecovery, w.recovery_cost(pfs_chain));
                }
              } else if (seg < last && !two_level) {
                ++seg;
                begin_segment();
              } else {
                begin_phase(Phase::kCheckpoint,
                            seg < last ? w.level1 : w.checkpoint);
              }
              break;
            case Phase::kCheckpoint:
              if (seg == last) {
                stored = true;
                break;
              }
              ++seg;
              begin_segment();
              break;
            case Phase::kRecovery:
              begin_try(/*attempt=*/true);
              break;
            case Phase::kLevel1:
              begin_try(/*attempt=*/false);
              break;
          }
          break;
        }

        default: {  // fail source event->slot - kFailSlot strikes
          const std::size_t src = event->slot - kFailSlot;
          if (stats.fail_stop_errors >= kMaxPatternAttempts) w.throw_diverged();
          ++stats.fail_stop_errors;
          if (phase == Phase::kRecovery || phase == Phase::kLevel1) {
            ++stats.recovery_fail_stops;
          }
          if (!kPlain && w.fail_sources[src].is_shock) {
            ++stats.shock_errors;
            pfs_chain = pfs_chain || w.tiered();
          }
          if (silent_struck) {
            ++stats.masked_silent;
            silent_struck = false;
          }
          pending.cancel(kPhaseEndSlot);
          pending.cancel(kSilentSlot);
          trace_phase(/*wasted=*/true);
          if (trace != nullptr) {
            trace->add(clock, clock + w.downtime, SegmentKind::kDowntime);
          }
          // Downtime: nothing can fail; all sources renew after it.
          clock += w.downtime;
          begin_recovery(Phase::kRecovery, w.recovery_cost(pfs_chain));
          break;
        }
      }
    }
    stats.wall_time = clock - start_time;
    totals.merge(stats);
  }
  return totals;
}

}  // namespace ayd::sim
