#include "ayd/sim/segmented.hpp"

#include <limits>
#include <sstream>
#include <utility>

#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"

namespace ayd::sim {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

void require_no_pool(const UnitVariatePool::Cursor* cursor) {
  AYD_REQUIRE(cursor == nullptr,
              "segmented patterns and extended worlds have no CRN pool mode "
              "(their draw sequence interleaves several laws)");
}

}  // namespace

namespace detail {

SegmentedWorld::SegmentedWorld(const model::System& sys,
                               const core::Pattern& pattern)
    : SegmentedWorld(sys, pattern.period, pattern.procs, 1, false) {
  core::validate(pattern);
}

SegmentedWorld::SegmentedWorld(const model::System& sys,
                               const core::MultiPattern& pattern)
    : SegmentedWorld(sys, pattern.period, pattern.procs, pattern.segments,
                     false) {
  core::validate(pattern);
}

SegmentedWorld::SegmentedWorld(const core::TwoLevelSystem& sys,
                               const core::TwoLevelPattern& pattern)
    : SegmentedWorld(sys.base, pattern.period, pattern.procs,
                     pattern.segments, true) {
  core::validate(pattern);
  level1 = sys.level1_cost(pattern.procs);
}

SegmentedWorld::SegmentedWorld(const model::System& sys, double period,
                               double procs, int segments, bool two_level)
    : period(period),
      procs(procs),
      segments(segments),
      two_level(two_level),
      work(period / segments),
      verify(sys.verification_cost(procs)),
      checkpoint(sys.checkpoint_cost(procs)),
      recovery(sys.recovery_cost(procs)),
      pfs_recovery(recovery),
      downtime(sys.downtime()) {
  const model::CorrelatedSpec* ext = sys.extension();
  const bool shock = ext != nullptr && ext->shock.has_value();

  // Per-component (individual) sources carry the (1-rho) remainder of
  // the fail-stop intensity, split across the heterogeneity classes
  // (one class at the base law otherwise, the whole intensity for a
  // plain System).
  const double rho = shock ? ext->shock->correlation : 0.0;
  const double individual = (1.0 - rho) * sys.fail_stop_rate(procs);
  if (ext != nullptr && ext->heterogeneity.has_value()) {
    for (const model::ComponentGroup& g : ext->heterogeneity->groups) {
      fail_sources.push_back(
          {g.dist.instantiate(individual * g.share * g.rate_scale), false});
    }
  } else {
    fail_sources.push_back({sys.failure().dist().instantiate(individual),
                            false});
  }
  // The shock stream, last in draw order. Its rate is per platform, not
  // per processor (ShockSpec::shock_rate).
  if (shock) {
    fail_sources.push_back(
        {ext->shock->dist.instantiate(ext->shock->shock_rate(
             sys.failure().lambda_ind(), sys.failure().fail_stop_fraction())),
         true});
  }
  for (const FailSource& src : fail_sources) {
    total_fail_rate += src.dist->rate();
  }

  silent = sys.failure().dist().instantiate(sys.silent_rate(procs));
  if (ext != nullptr && ext->two_tier.has_value()) {
    pfs_recovery = ext->two_tier->pfs_recovery.cost(procs);
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
  std::ostringstream os;
  os << "pattern did not complete within " << kMaxPatternAttempts
     << " tries (T=" << period << ", P=" << procs << ", n=" << segments
     << ", total lambda_f=" << total_fail_rate
     << ", lambda_s=" << silent->rate()
     << "); the per-try success probability is too small";
  throw util::SimulationDiverged(os.str());
}

}  // namespace detail

// --- SegmentedFastSimulator ----------------------------------------------

SegmentedFastSimulator::SegmentedFastSimulator(detail::SegmentedWorld world)
    : world_(std::move(world)) {
  const detail::SegmentedWorld& w = world_;
  for (const detail::FailSource& src : w.fail_sources) {
    if (src.dist->rate() > 0.0) {
      fail_draws_.push_back(
          {src.dist.get(), src.dist->unit_samplable(), src.is_shock});
    }
  }
  // Window rows: the try from each start segment a try can begin at (a
  // two-level segment retry starts mid-pattern), then R, R_pfs and L.
  std::vector<double> windows;
  for (int from = 0; from < (w.two_level ? w.segments : 1); ++from) {
    windows.push_back(w.try_window(from));
  }
  recovery_row_ = windows.size();
  windows.insert(windows.end(), {w.recovery, w.pfs_recovery, w.level1});
  for (const double window : windows) {
    for (const SourceDraw& src : fail_draws_) {
      fail_thresholds_.push_back(
          src.filtered ? safe_word_threshold(*src.dist, window) : 0);
    }
  }
  if (w.silent_active()) {
    silent_draw_ = {w.silent.get(), w.silent->unit_samplable(), false};
    if (silent_draw_.filtered) {
      silent_threshold_ = safe_word_threshold(*w.silent, w.work);
    }
  }
}

void SegmentedFastSimulator::set_unit_cursor(UnitVariatePool::Cursor* cursor) {
  require_no_pool(cursor);
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

}  // namespace

PatternStats SegmentedFastSimulator::simulate_replica(rng::RngStream& rng,
                                                      std::size_t n) {
  const detail::SegmentedWorld& w = world_;
  const int last = w.segments - 1;
  const std::size_t sources = fail_draws_.size();
  const std::size_t level1_row = recovery_row_ + 2;
  EngineCopy words(rng);
  PatternStats totals;

  // Earliest arrival over all active fail sources this renewal interval,
  // drawn against the thresholds of window row `row`, and whether it came
  // from the shock stream. Strict < keeps the first source on a tie (ties
  // have measure zero for the analytic laws). A filtered draw beyond the
  // window can neither win a strike nor change the winner of one.
  bool min_is_shock = false;
  const auto draw_fail = [&](std::size_t row) -> double {
    const std::uint64_t* thr = fail_thresholds_.data() + row * sources;
    double best = kInf;
    min_is_shock = false;
    for (std::size_t j = 0; j < sources; ++j) {
      const SourceDraw& src = fail_draws_[j];
      const double a = words.draw(*src.dist, src.filtered, thr[j]);
      if (a < best) {
        best = a;
        min_is_shock = src.is_shock;
      }
    }
    return best;
  };
  const auto draw_silent = [&]() -> double {
    return silent_draw_.dist != nullptr
               ? words.draw(*silent_draw_.dist, silent_draw_.filtered,
                            silent_threshold_)
               : kInf;
  };

  // What a try leads to: the pattern is stored, it restarts from scratch,
  // or (two-level) the segment it reports retries.
  constexpr int kStored = -1;
  constexpr int kRestart = -2;

  for (std::size_t p = 0; p < n; ++p) {
    PatternStats st;
    double wall = 0.0;

    // One rollback chain to the pattern start: recovery tries until one
    // completes without a fail-stop. The PFS tier is sticky in the chain.
    const auto run_recovery = [&](bool from_shock) {
      bool pfs = w.tiered() && from_shock;
      for (;;) {
        const double r = w.recovery_cost(pfs);
        const double y = draw_fail(recovery_row_ + (pfs ? 1 : 0));
        if (!(y < r)) {
          wall += r;
          return;
        }
        if (st.fail_stop_errors >= kMaxPatternAttempts) w.throw_diverged();
        ++st.fail_stop_errors;
        ++st.recovery_fail_stops;
        if (min_is_shock) {
          ++st.shock_errors;
          pfs = pfs || w.tiered();
        }
        wall += y + w.downtime;
      }
    };
    const auto fail_stop = [&](double x, bool shock) {
      ++st.fail_stop_errors;
      if (shock) ++st.shock_errors;
      wall += x + w.downtime;
      run_recovery(shock);
      return kRestart;
    };
    // A silent detection at segment i (wall already charged): VC / multi
    // roll the pattern back; two-level tries one level-1 recovery.
    const auto silent_rollback = [&](int i) {
      if (!w.two_level) {
        run_recovery(/*from_shock=*/false);
        return kRestart;
      }
      const double y = draw_fail(level1_row);
      if (!(y < w.level1)) {
        wall += w.level1;
        return i;
      }
      ++st.recovery_fail_stops;
      return fail_stop(y, min_is_shock);
    };
    // One try from segment `from`: a single fail-stop arrival covers the
    // rest of the pattern (window row `from`), a fresh silent arrival each
    // segment's work. Offsets accumulate from the try start in phase
    // order (SegmentedWorld::try_window), so n = 1 reproduces the plain
    // loop's T+V and T+V+C windows exactly.
    const auto run_try = [&](int from) {
      const double x = draw_fail(static_cast<std::size_t>(from));
      const bool x_shock = min_is_shock;
      double e = 0.0;
      for (int i = from; i <= last; ++i) {
        const double s = draw_silent();
        const bool silent = s < w.work;
        const double verified = (e + w.work) + w.verify;
        if (x < verified) {
          if (silent && e + s < x) ++st.masked_silent;
          return fail_stop(x, x_shock);
        }
        if (silent) {
          ++st.silent_detections;
          wall += verified;
          return silent_rollback(i);
        }
        e = verified;
        if (i < last && !w.two_level) continue;
        const double stored = e + (i < last ? w.level1 : w.checkpoint);
        if (x < stored) return fail_stop(x, x_shock);
        e = stored;
      }
      wall += e;
      return kStored;
    };

    std::uint64_t tries = 0;
    for (int next = kRestart; next != kStored;) {
      if (tries >= kMaxPatternAttempts) w.throw_diverged();
      ++tries;
      if (next == kRestart) ++st.attempts;
      next = run_try(next == kRestart ? 0 : next);
    }
    st.wall_time = wall;
    totals.merge(st);
  }
  return totals;
}

// --- SegmentedDesSimulator -----------------------------------------------

void SegmentedDesSimulator::set_unit_cursor(UnitVariatePool::Cursor* cursor) {
  require_no_pool(cursor);
}

PatternStats SegmentedDesSimulator::simulate_replica(rng::RngStream& rng,
                                                     std::size_t n) {
  PatternStats totals;
  for (std::size_t p = 0; p < n; ++p) {
    totals.merge(simulate_pattern(rng));
  }
  return totals;
}

PatternStats SegmentedDesSimulator::simulate_pattern(rng::RngStream& rng,
                                                     Trace* trace,
                                                     double start_time) {
  enum class Phase { kWork, kVerify, kCheckpoint, kRecovery, kLevel1 };

  const detail::SegmentedWorld& w = world_;
  const int last = w.segments - 1;
  PatternStats stats;
  pending_.reset();

  double clock = start_time;
  double phase_start = clock;
  Phase phase = Phase::kWork;
  int seg = 0;
  bool silent_struck = false;
  bool pfs_chain = false;  ///< sticky PFS tier of the current rollback chain
  std::uint64_t tries = 0;

  // Every fail source renews at each try start and each recovery try:
  // any pending arrival is cancelled and a fresh one drawn (the draw
  // always consumes its words). An arrival at or beyond `discard_at` —
  // the renewal window's end, computed with the same additions the
  // phase-end chain performs — can never strike, so it is discarded
  // unscheduled; the strict < matches the fast interpreter's windows.
  const auto renew_fail_sources = [&](double discard_at) {
    for (std::size_t j = 0; j < w.fail_sources.size(); ++j) {
      pending_.cancel(kFailSlot + j);
      const model::FailureDistribution& dist = *w.fail_sources[j].dist;
      if (dist.rate() <= 0.0) continue;
      const double arrival = clock + dist.sample(rng);
      if (arrival < discard_at) pending_.schedule(kFailSlot + j, arrival);
    }
  };
  // End of a try that starts now at segment `seg`.
  const auto try_end = [&] {
    double e = clock;
    for (int i = seg; i <= last; ++i) {
      e = (e + w.work) + w.verify;
      if (i < last && w.two_level) e = e + w.level1;
    }
    return e + w.checkpoint;
  };
  const auto begin_phase = [&](Phase next, double duration) {
    phase = next;
    phase_start = clock;
    pending_.schedule(kPhaseEndSlot, clock + duration);
  };
  const auto begin_segment = [&] {
    silent_struck = false;
    begin_phase(Phase::kWork, w.work);
    if (w.silent_active()) {
      const double arrival = clock + w.silent->sample(rng);
      if (arrival < clock + w.work) pending_.schedule(kSilentSlot, arrival);
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

  begin_try(/*attempt=*/true);

  for (;;) {
    const auto event = pending_.pop();
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
            pending_.cancel(kSilentSlot);
            begin_phase(Phase::kVerify, w.verify);
            break;
          case Phase::kVerify:
            if (silent_struck) {
              ++stats.silent_detections;
              silent_struck = false;
              // The try's pending fail arrivals die at this renewal.
              if (w.two_level) {
                begin_recovery(Phase::kLevel1, w.level1);
              } else {
                begin_recovery(Phase::kRecovery, w.recovery_cost(pfs_chain));
              }
            } else if (seg < last && !w.two_level) {
              ++seg;
              begin_segment();
            } else {
              begin_phase(Phase::kCheckpoint,
                          seg < last ? w.level1 : w.checkpoint);
            }
            break;
          case Phase::kCheckpoint:
            if (seg == last) {
              stats.wall_time = clock - start_time;
              return stats;
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
        if (w.fail_sources[src].is_shock) {
          ++stats.shock_errors;
          pfs_chain = pfs_chain || w.tiered();
        }
        if (silent_struck) {
          ++stats.masked_silent;
          silent_struck = false;
        }
        pending_.cancel(kPhaseEndSlot);
        pending_.cancel(kSilentSlot);
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
}

}  // namespace ayd::sim
