#include "ayd/sim/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "ayd/rng/simd.hpp"
#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"

namespace ayd::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

[[noreturn]] void throw_diverged(const core::Pattern& pattern, double lf,
                                 double ls) {
  std::ostringstream os;
  os << "pattern did not complete within " << kMaxPatternAttempts
     << " attempts (T=" << pattern.period << ", P=" << pattern.procs
     << ", lambda_f=" << lf << ", lambda_s=" << ls
     << "); the per-attempt success probability is too small";
  throw util::SimulationDiverged(os.str());
}

/// True when every *active* error source (rate > 0) draws exactly one
/// uniform per sample and factors through the unit-variate API.
bool sources_unit_samplable(double lf, const model::FailureDistribution& fd,
                            double ls, const model::FailureDistribution& sd) {
  if (lf > 0.0 && !fd.unit_samplable()) return false;
  if (ls > 0.0 && !sd.unit_samplable()) return false;
  return true;
}

}  // namespace

std::uint64_t safe_word_threshold(const model::FailureDistribution& dist,
                                  double window) {
  // The margin must dominate the *inconsistency* between cdf() and the
  // quantile inversion behind sample_value(), not just rounding noise.
  // Exponential and Weibull use algebraically matched expm1/log1p/pow
  // forms (disagreement ~1e-15 relative in u). The lognormal is the
  // hard case: its cdf uses accurate erfc while its quantile uses
  // Acklam's approximation (|rel err| ~1.15e-9 in z-space), which maps
  // to a u-space disagreement of up to ~1.15e-9 * z^2 relative to the
  // cdf value; words never reach below u = 2^-53, so |z| <= 8.2 and the
  // worst case is ~8e-8. The 1e-4 relative margin clears that by three
  // orders of magnitude, and its only cost is that a 1e-4 sliver of
  // below-threshold draws computes the exact arrival unnecessarily
  // (tests/sim_bitcompat_test.cpp scans the boundary for violations).
  const double c = dist.cdf(window);
  const double thr = std::min(1.0, c + (c * 1e-4 + 1e-300));
  return static_cast<std::uint64_t>(std::ceil(thr * 0x1.0p53));
}

DesProtocolSimulator::DesProtocolSimulator(const model::System& sys,
                                           const core::Pattern& pattern)
    : pattern_(pattern),
      lf_(sys.fail_stop_rate(pattern.procs)),
      ls_(sys.silent_rate(pattern.procs)),
      t_(pattern.period),
      v_(sys.verification_cost(pattern.procs)),
      c_(sys.checkpoint_cost(pattern.procs)),
      r_(sys.recovery_cost(pattern.procs)),
      d_(sys.downtime()),
      fail_dist_(sys.failure().dist().instantiate(lf_)),
      silent_dist_(sys.failure().dist().instantiate(ls_)),
      renewal_(!fail_dist_->memoryless()),
      batched_(sources_unit_samplable(lf_, *fail_dist_, ls_, *silent_dist_)) {
  core::validate(pattern);
  if (batched_) {
    unit_src_ = lf_ > 0.0 ? fail_dist_.get() : silent_dist_.get();
  }
}

void DesProtocolSimulator::set_unit_cursor(UnitVariatePool::Cursor* cursor) {
  AYD_REQUIRE(cursor == nullptr || batched_,
              "set_unit_cursor: an active source does not factor through "
              "unit variates");
  pool_cursor_ = cursor;
}

double DesProtocolSimulator::draw(const model::FailureDistribution& dist,
                                  rng::RngStream& rng) {
  // Pool (CRN) mode: the unit variate comes from the shared sequence and
  // the stream is left untouched; only the cheap scaling runs here.
  if (pool_cursor_ != nullptr) return dist.from_unit(pool_cursor_->next());
  if (!batched_) return dist.sample(rng);
  // Shared unit block: uniforms leave the stream in the historical draw
  // order, the expensive inversion runs in bulk (tier-dispatched: the
  // scalar reference transform or the vectorized kernels), and each draw
  // is dist.from_unit(z) == the value dist.sample() would have produced
  // under the scalar tier.
  return dist.from_unit(units_.next([&](double* z, std::size_t n) {
    unit_src_->sample_units_fast(rng, z, n);
    expected_state_ = rng.engine().state();
  }));
}

PatternStats DesProtocolSimulator::simulate_pattern(rng::RngStream& rng,
                                                    Trace* trace,
                                                    double start_time) {
  enum class Phase { kWork, kVerify, kCheckpoint, kRecovery };

  PatternStats stats;
  // Fresh schedule counter per pattern: ids (and so tie-breaks) are
  // identical to the historical fresh-queue-per-pattern behaviour.
  pending_.reset();
  // Stale-prefetch guard: variates buffered from a previous call are
  // only valid if `rng` is the same stream at the same position. A
  // fingerprint mismatch means the caller switched streams without
  // begin_replica(); discard the buffer so the new stream's own words
  // are consumed in order.
  if (batched_ && units_.buffered() > 0 &&
      rng.engine().state() != expected_state_) {
    units_.reset();
  }
  double clock = start_time;

  Phase phase = Phase::kWork;
  double phase_start = clock;
  bool silent_struck = false;

  // `discard_at` is the exact event time at which the scheduled arrival
  // would be discarded anyway: under renewal the pending fail-stop dies
  // at the next renewal point (attempt end ((clock+T)+V)+C or recovery
  // end clock+R — computed with the same additions the phase-end chain
  // will perform, so the comparison is exact). An arrival strictly
  // beyond that point can never fire, so it is not scheduled; the draw
  // still consumed its words. The comparison must be strict: a fail-stop
  // scheduled at an attempt start carries an *older* id than the
  // verify/checkpoint phase-ends scheduled later, so on an exact time tie
  // at the attempt end the fail-stop pops first and must strike
  // (trace-replay distributions have atoms, so exact ties carry real
  // probability). At a tie on a recovery end the recovery phase-end is
  // older and pops first, and the scheduled arrival is then cancelled by
  // the renewal. Memoryless sources keep their pending arrival across
  // renewal points and are always scheduled.
  const auto schedule_fail_stop = [&](double discard_at) {
    if (lf_ > 0.0) {
      const double arrival = clock + draw(*fail_dist_, rng);
      if (renewal_ && arrival > discard_at) return;
      pending_.schedule(kFailStopSlot, arrival);
    }
  };
  const auto attempt_end = [&] { return ((clock + t_) + v_) + c_; };
  const auto begin_phase = [&](Phase next, double duration) {
    phase = next;
    phase_start = clock;
    pending_.schedule(kPhaseEndSlot, clock + duration);
  };
  const auto begin_attempt = [&] {
    if (stats.attempts >= kMaxPatternAttempts) {
      throw_diverged(pattern_, lf_, ls_);
    }
    ++stats.attempts;
    silent_struck = false;
    begin_phase(Phase::kWork, t_);
    if (ls_ > 0.0) {
      const double arrival = clock + draw(*silent_dist_, rng);
      // A silent arrival at or beyond the work phase-end can never fire:
      // the phase-end (same time or earlier, and the older id) pops
      // first and cancels it. Not scheduling it saves the round trip;
      // the draw itself still happened, so the stream is unchanged.
      if (arrival < clock + t_) pending_.schedule(kSilentSlot, arrival);
    }
  };
  // Renewal point for non-memoryless distributions: discard the pending
  // arrival and draw a fresh one, mirroring the fast sampler's one-draw-
  // per-attempt / per-recovery-try structure. Memoryless arrivals keep
  // their pending draw (the historical exponential path, bit-for-bit).
  const auto renew_fail_stop = [&](double discard_at) {
    if (!renewal_) return;
    pending_.cancel(kFailStopSlot);
    schedule_fail_stop(discard_at);
  };
  const auto trace_segment = [&](double begin, double end, SegmentKind kind) {
    if (trace != nullptr) trace->add(begin, end, kind);
  };
  const auto phase_kind = [&]() -> SegmentKind {
    switch (phase) {
      case Phase::kWork: return SegmentKind::kCompute;
      case Phase::kVerify: return SegmentKind::kVerify;
      case Phase::kCheckpoint: return SegmentKind::kCheckpoint;
      case Phase::kRecovery: return SegmentKind::kRecovery;
    }
    AYD_ENSURE(false, "unreachable phase");
  };

  begin_attempt();
  schedule_fail_stop(attempt_end());

  for (;;) {
    const auto event = pending_.pop();
    AYD_ENSURE(event.has_value(), "protocol simulation ran out of events");
    clock = event->time;

    switch (event->slot) {
      case kSilentSlot: {
        // Fires only during the work phase: it is scheduled at work start
        // and cancelled when the phase ends or is preempted.
        AYD_ENSURE(phase == Phase::kWork, "silent error outside computation");
        silent_struck = true;
        break;
      }

      case kFailStopSlot: {
        if (stats.fail_stop_errors >= kMaxPatternAttempts) {
          throw_diverged(pattern_, lf_, ls_);
        }
        ++stats.fail_stop_errors;
        if (phase == Phase::kRecovery) ++stats.recovery_fail_stops;
        if (silent_struck) {
          // Masked: the rollback the fail-stop forces also repairs the
          // corruption, so the verification never has to catch it.
          ++stats.masked_silent;
          silent_struck = false;
        }
        pending_.cancel(kPhaseEndSlot);
        pending_.cancel(kSilentSlot);
        // The partial phase execution is lost.
        trace_segment(phase_start, clock,
                      phase == Phase::kWork ? SegmentKind::kWasted
                                            : phase_kind());
        // Downtime: nothing can fail, no events pending by construction.
        trace_segment(clock, clock + d_, SegmentKind::kDowntime);
        clock += d_;
        begin_phase(Phase::kRecovery, r_);
        schedule_fail_stop(clock + r_);  // fresh arrival after downtime
        break;
      }

      default: {  // kPhaseEndSlot
        switch (phase) {
          case Phase::kWork:
            pending_.cancel(kSilentSlot);
            trace_segment(phase_start, clock,
                          silent_struck ? SegmentKind::kWasted
                                        : SegmentKind::kCompute);
            begin_phase(Phase::kVerify, v_);
            break;
          case Phase::kVerify:
            trace_segment(phase_start, clock, SegmentKind::kVerify);
            if (silent_struck) {
              ++stats.silent_detections;
              silent_struck = false;
              begin_phase(Phase::kRecovery, r_);
              renew_fail_stop(clock + r_);  // fresh draw per recovery try
            } else {
              begin_phase(Phase::kCheckpoint, c_);
            }
            break;
          case Phase::kCheckpoint:
            trace_segment(phase_start, clock, SegmentKind::kCheckpoint);
            stats.wall_time = clock - start_time;
            return stats;
          case Phase::kRecovery:
            trace_segment(phase_start, clock, SegmentKind::kRecovery);
            begin_attempt();
            renew_fail_stop(attempt_end());  // fresh draw per attempt
            break;
        }
        break;
      }
    }
  }
}

PatternStats DesProtocolSimulator::simulate_replica(rng::RngStream& rng,
                                                    std::size_t n) {
  PatternStats totals;
  for (std::size_t p = 0; p < n; ++p) {
    totals.merge(simulate_pattern(rng));
  }
  return totals;
}

FastProtocolSimulator::FastProtocolSimulator(const model::System& sys,
                                             const core::Pattern& pattern)
    : pattern_(pattern),
      lf_(sys.fail_stop_rate(pattern.procs)),
      ls_(sys.silent_rate(pattern.procs)),
      t_(pattern.period),
      r_(sys.recovery_cost(pattern.procs)),
      d_(sys.downtime()),
      tv_(t_ + sys.verification_cost(pattern.procs)),
      tvc_(tv_ + sys.checkpoint_cost(pattern.procs)),
      fail_dist_(sys.failure().dist().instantiate(lf_)),
      silent_dist_(sys.failure().dist().instantiate(ls_)),
      lazy_(sources_unit_samplable(lf_, *fail_dist_, ls_, *silent_dist_)) {
  core::validate(pattern);
  if (lazy_) {
    if (lf_ > 0.0) {
      mthr_fail_ = safe_word_threshold(*fail_dist_, tvc_);
      mthr_rec_ = safe_word_threshold(*fail_dist_, r_);
    }
    if (ls_ > 0.0) mthr_silent_ = safe_word_threshold(*silent_dist_, t_);

    // Devirtualized from_unit scaling for the pool walks. The
    // expressions reproduce the scalar from_unit bit-for-bit: the
    // Weibull multiplies by its scale (from_unit(1.0) == the scale
    // exactly), the exponential divides by its rate, and the lognormal
    // stays a virtual call (its scaling is an exp, not a constant).
    const auto scaling_of = [](const model::FailureDistribution& dist,
                               UnitScaling& scaling, double& factor) {
      switch (dist.kind()) {
        case model::FailureDistKind::kWeibull:
          scaling = UnitScaling::kLinear;
          factor = dist.from_unit(1.0);
          break;
        case model::FailureDistKind::kExponential:
          scaling = UnitScaling::kDivide;
          factor = dist.rate();
          break;
        default:
          scaling = UnitScaling::kVirtual;
          factor = 0.0;
          break;
      }
    };
    if (lf_ > 0.0) scaling_of(*fail_dist_, fail_scaling_, fail_factor_);
    if (ls_ > 0.0) scaling_of(*silent_dist_, silent_scaling_, silent_factor_);
  }
}

void FastProtocolSimulator::set_unit_cursor(UnitVariatePool::Cursor* cursor) {
  AYD_REQUIRE(cursor == nullptr || lazy_,
              "set_unit_cursor: an active source does not factor through "
              "unit variates");
  pool_cursor_ = cursor;
}

namespace {

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

}  // namespace

// Draw sources of the attempt machine below. Each supplies, in its own
// draw space (time for the exact sources, unit variates for UnitPool):
//   t, tv, tvc, r    the window bounds the decisions compare against;
//   attempt(x, s)    a fresh attempt's fail-stop and silent arrivals, fail
//                    first (+inf when the source is inactive, or when the
//                    arrival provably lies beyond every window);
//   recovery()       one recovery try's fail-stop arrival;
//   masks(s, x)      the silent arrival precedes the fail-stop;
// plus the pattern's wall clock: fail(x), detect(), recovered(), and
// finish(attempts, fail_stops, detections), which returns the pattern's
// wall time and restarts the clock. Each source copies what it reads into
// itself and is a local of the machine, so the compiler can keep the
// engine or cursor state and every constant in registers.

/// What the exact sources share: the window bounds in time, the two laws,
/// and the wall clock as a running sum in the order the pattern's time
/// elapses (the historical accumulation, bit-for-bit).
struct FastProtocolSimulator::ExactSource {
  double t, tv, tvc, r, d;
  const model::FailureDistribution* fail_dist;
  const model::FailureDistribution* silent_dist;
  bool have_fail, have_silent;
  double wall = 0.0;

  explicit ExactSource(const FastProtocolSimulator& sim)
      : t(sim.t_),
        tv(sim.tv_),
        tvc(sim.tvc_),
        r(sim.r_),
        d(sim.d_),
        fail_dist(sim.fail_dist_.get()),
        silent_dist(sim.silent_dist_.get()),
        have_fail(sim.lf_ > 0.0),
        have_silent(sim.ls_ > 0.0) {}

  [[nodiscard]] static bool masks(double s, double x) { return s < x; }
  void fail(double x) { wall += x + d; }
  void detect() { wall += tv; }
  void recovered() { wall += r; }
  [[nodiscard]] double finish(std::uint64_t, std::uint64_t, std::uint64_t) {
    const double w = wall + tvc;
    wall = 0.0;
    return w;
  }
};

/// The threshold-filtered stream. Each draw consumes exactly the word
/// the historical sampler would, but the quantile inversion only runs
/// when the word lands below the precomputed CDF threshold, i.e. when the
/// arrival *can* strike inside the window the decision needs. A draw left
/// at +inf behaves in every comparison exactly like the exact value
/// would. The engine state is copied into the source so the common case
/// — two words, two integer compares per attempt — runs in registers;
/// the destructor writes it back even if the divergence bound throws.
struct FastProtocolSimulator::ThresholdStream : ExactSource {
  rng::Xoshiro256 eng;
  rng::RngStream& stream;
  std::uint64_t mthr_fail, mthr_silent, mthr_rec;

  ThresholdStream(const FastProtocolSimulator& sim, rng::RngStream& rng)
      : ExactSource(sim),
        eng(rng.engine()),
        stream(rng),
        mthr_fail(sim.mthr_fail_),
        mthr_silent(sim.mthr_silent_),
        mthr_rec(sim.mthr_rec_) {}
  ThresholdStream(const ThresholdStream&) = delete;
  ThresholdStream& operator=(const ThresholdStream&) = delete;
  ~ThresholdStream() { stream.engine() = eng; }

  double draw(const model::FailureDistribution* dist, std::uint64_t mthr) {
    const std::uint64_t m = eng() >> 11;
    return m < mthr ? dist->sample_value(static_cast<double>(m) * 0x1.0p-53)
                    : kInf;
  }
  void attempt(double& x, double& s) {
    x = have_fail ? draw(fail_dist, mthr_fail) : kInf;
    s = have_silent ? draw(silent_dist, mthr_silent) : kInf;
  }
  double recovery() { return have_fail ? draw(fail_dist, mthr_rec) : kInf; }
};

/// The stream drawing every arrival through sample(): the historical
/// loop, for sources that cannot be threshold-filtered (trace replay's
/// variable word consumption).
struct FastProtocolSimulator::FullStream : ExactSource {
  rng::RngStream& rng;

  FullStream(const FastProtocolSimulator& sim, rng::RngStream& stream)
      : ExactSource(sim), rng(stream) {}

  void attempt(double& x, double& s) {
    x = have_fail ? fail_dist->sample(rng) : kInf;
    s = have_silent ? silent_dist->sample(rng) : kInf;
  }
  double recovery() { return have_fail ? fail_dist->sample(rng) : kInf; }
};

/// The CRN pool, exact: the unit transforms were paid once, in the
/// shared pool, so each draw is one cursor read plus the cheap from_unit
/// scaling. Computing every arrival (no threshold filter) is
/// bit-identical to the threshold-filtered stream in the scalar tier: the
/// filter only suppresses values that lose every comparison they appear
/// in, and here the value is nearly free.
struct FastProtocolSimulator::ExactPool : ExactSource, CursorCopy {
  UnitScaling fail_scaling, silent_scaling;
  double fail_factor, silent_factor;

  explicit ExactPool(const FastProtocolSimulator& sim)
      : ExactSource(sim),
        CursorCopy(*sim.pool_cursor_),
        fail_scaling(sim.fail_scaling_),
        silent_scaling(sim.silent_scaling_),
        fail_factor(sim.fail_factor_),
        silent_factor(sim.silent_factor_) {}

  static double scale(UnitScaling sc, double factor,
                      const model::FailureDistribution* dist, double z) {
    switch (sc) {
      case UnitScaling::kLinear: return factor * z;
      case UnitScaling::kDivide: return z / factor;
      default: return dist->from_unit(z);
    }
  }
  void attempt(double& x, double& s) {
    x = have_fail ? scale(fail_scaling, fail_factor, fail_dist, cur.next())
                  : kInf;
    s = have_silent
            ? scale(silent_scaling, silent_factor, silent_dist, cur.next())
            : kInf;
  }
  double recovery() {
    return have_fail ? scale(fail_scaling, fail_factor, fail_dist, cur.next())
                     : kInf;
  }
};

/// The CRN pool in unit space (SIMD golden tier only). The windows are
/// rescaled into unit space once — z < w/f decides what f·z < w decides,
/// up to one rounding of the bound — so a draw is a raw sequential read
/// and a compare. Arrival times are materialized (with the exact
/// from_unit expressions) only where two channels are compared. The wall
/// clock decomposes into counter-weighted constants plus the sum of the
/// consumed fail-stop arrivals: every fail stop adds its arrival and one
/// downtime, every non-completing attempt runs one clean recovery, every
/// detection adds T+V and the completing attempt T+V+C. So the hot loop
/// only sums raw unit variates and the sum is scaled once per pattern.
/// Decisions and roundings can differ from the exact walk within an ulp
/// of a bound; that freedom belongs to the SIMD tier, whose results are
/// its own golden tier — the scalar reference tier never selects this.
struct FastProtocolSimulator::UnitPool : CursorCopy {
  double t, tv, tvc, r;  ///< window bounds, in unit space
  double wall_tv, wall_tvc, wall_r, d;
  UnitScaling fail_scaling, silent_scaling;
  double fail_factor, silent_factor;
  bool have_fail, have_silent;
  double z_sum = 0.0;

  /// A window bound in unit space; an inactive channel's bound is 0,
  /// which its +inf draw never undercuts.
  static double bound(bool active, UnitScaling sc, double factor,
                      double window) {
    if (!active) return 0.0;
    return sc == UnitScaling::kLinear ? window / factor : window * factor;
  }
  static double arrival(UnitScaling sc, double factor, double z) {
    return sc == UnitScaling::kLinear ? factor * z : z / factor;
  }

  explicit UnitPool(const FastProtocolSimulator& sim)
      : CursorCopy(*sim.pool_cursor_),
        t(bound(sim.ls_ > 0.0, sim.silent_scaling_, sim.silent_factor_,
                sim.t_)),
        tv(bound(sim.lf_ > 0.0, sim.fail_scaling_, sim.fail_factor_, sim.tv_)),
        tvc(bound(sim.lf_ > 0.0, sim.fail_scaling_, sim.fail_factor_,
                  sim.tvc_)),
        r(bound(sim.lf_ > 0.0, sim.fail_scaling_, sim.fail_factor_, sim.r_)),
        wall_tv(sim.tv_),
        wall_tvc(sim.tvc_),
        wall_r(sim.r_),
        d(sim.d_),
        fail_scaling(sim.fail_scaling_),
        silent_scaling(sim.silent_scaling_),
        fail_factor(sim.fail_factor_),
        silent_factor(sim.silent_factor_),
        have_fail(sim.lf_ > 0.0),
        have_silent(sim.ls_ > 0.0) {}

  void attempt(double& x, double& s) {
    if (have_fail && have_silent) {
      cur.next2(x, s);
      return;
    }
    x = have_fail ? cur.next() : kInf;
    s = have_silent ? cur.next() : kInf;
  }
  double recovery() { return have_fail ? cur.next() : kInf; }
  [[nodiscard]] bool masks(double s, double x) const {
    return arrival(silent_scaling, silent_factor, s) <
           arrival(fail_scaling, fail_factor, x);
  }
  void fail(double x) { z_sum += x; }
  static void detect() {}
  static void recovered() {}
  [[nodiscard]] double finish(std::uint64_t attempts, std::uint64_t fail_stops,
                              std::uint64_t detections) {
    // Without a fail-stop channel the sum is empty and its scaling
    // undefined (an inactive channel has no factor).
    const double w = (have_fail ? arrival(fail_scaling, fail_factor, z_sum)
                                : 0.0) +
                     d * static_cast<double>(fail_stops) +
                     wall_r * static_cast<double>(attempts - 1) +
                     wall_tv * static_cast<double>(detections) + wall_tvc;
    z_sum = 0.0;
    return w;
  }
};

template <class Source, class... Args>
PatternStats FastProtocolSimulator::run(std::size_t n, Args&&... args) const {
  Source src(*this, std::forward<Args>(args)...);
  PatternStats totals;
  for (std::size_t p = 0; p < n; ++p) {
    // Per-pattern counters live in registers; PatternStats is only
    // touched once per pattern.
    std::uint64_t attempts = 0;
    std::uint64_t fail_stops = 0;
    std::uint64_t recovery_fails = 0;
    std::uint64_t detections = 0;
    std::uint64_t masked = 0;

    for (;;) {
      if (attempts >= kMaxPatternAttempts) {
        throw_diverged(pattern_, lf_, ls_);
      }
      ++attempts;
      // A fresh fail-stop and silent arrival per attempt (the renewal
      // point; for the exponential, memorylessness makes this equivalent
      // to a persistent arrival clock).
      double x, s;
      src.attempt(x, s);
      const bool silent = s < src.t;
      if (x < src.tv) {
        // Fail-stop during compute or verification; it masks a silent
        // error that struck before it.
        ++fail_stops;
        if (silent && src.masks(s, x)) ++masked;
        src.fail(x);
      } else if (silent) {
        // Survived to the end of verification; the silent error is
        // caught.
        ++detections;
        src.detect();
      } else if (x < src.tvc) {
        // Fail-stop while storing the checkpoint.
        ++fail_stops;
        src.fail(x);
      } else {
        break;
      }
      // Downtime after a fail-stop is in fail(); then recovery tries,
      // each with a fresh fail-stop arrival, until one completes.
      for (;;) {
        const double y = src.recovery();
        if (!(y < src.r)) break;
        if (fail_stops >= kMaxPatternAttempts) {
          throw_diverged(pattern_, lf_, ls_);
        }
        ++fail_stops;
        ++recovery_fails;
        src.fail(y);
      }
      src.recovered();
    }

    totals.wall_time += src.finish(attempts, fail_stops, detections);
    totals.attempts += attempts;
    totals.fail_stop_errors += fail_stops;
    totals.recovery_fail_stops += recovery_fails;
    totals.silent_detections += detections;
    totals.masked_silent += masked;
  }
  return totals;
}

PatternStats FastProtocolSimulator::simulate_replica(rng::RngStream& rng,
                                                     std::size_t n) {
  if (!lazy_) return run<FullStream>(n, rng);
  if (pool_cursor_ == nullptr) return run<ThresholdStream>(n, rng);
  // Under a SIMD tier the unit-space walk is preferred: it makes the same
  // decisions up to the rounding of the rescaled window bounds, which is
  // exactly the freedom the SIMD golden tier declares. The scalar
  // reference tier must stay bit-identical to stream sampling
  // (tests/engine_crn_test.cpp), so it keeps the exact walk.
  if (rng::simd::active_tier() != rng::simd::Tier::kScalar &&
      (lf_ <= 0.0 || fail_scaling_ != UnitScaling::kVirtual) &&
      (ls_ <= 0.0 || silent_scaling_ != UnitScaling::kVirtual)) {
    return run<UnitPool>(n);
  }
  return run<ExactPool>(n);
}

}  // namespace ayd::sim
