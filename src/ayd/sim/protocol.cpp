#include "ayd/sim/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"

namespace ayd::sim {

void detail::throw_diverged(double period, double procs, int segments,
                            double fail_rate, double silent_rate) {
  std::ostringstream os;
  os << "pattern did not complete within " << kMaxPatternAttempts
     << " tries (T=" << period << ", P=" << procs << ", n=" << segments
     << ", lambda_f=" << fail_rate << ", lambda_s=" << silent_rate
     << "); the per-try success probability is too small";
  throw util::SimulationDiverged(os.str());
}

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
      batched_((lf_ <= 0.0 || fail_dist_->unit_samplable()) &&
               (ls_ <= 0.0 || silent_dist_->unit_samplable())) {
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
      detail::throw_diverged(pattern_.period, pattern_.procs, 1, lf_, ls_);
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
          detail::throw_diverged(pattern_.period, pattern_.procs, 1, lf_, ls_);
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

}  // namespace ayd::sim
