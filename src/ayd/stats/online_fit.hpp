// Windowed maximum-likelihood fitting of failure inter-arrival times with
// change detection — the estimator half of the online re-planning loop
// (ROADMAP item 4).
//
// OnlineFit keeps a fixed-size rolling ring of the most recent positive
// gaps, refits exponential / Weibull / lognormal MLEs on a cadence, picks
// the family by AIC, and tests for drift with a generalized-likelihood-
// ratio statistic: the per-event log-likelihood ratio of the fresh fit
// against the deployed baseline density, averaged over the window. The
// re-plan guard is the same CI discipline the golden-section search uses
// (stats/ci): drift fires only when the Student-t lower confidence bound
// of the mean LLR clears zero AND the mean itself clears a configured
// noise floor — a stable improvement, not a lucky window.
//
// A refit takes each window logarithm and each baseline density once.
// Each ring slot stores log(gap), computed when the gap arrives. The
// fitters read the window as (gaps, logs): the exponential reads only the
// gaps, the lognormal only the logs, and the Weibull shape is a
// safeguarded Newton solve needing one exp per sample per step. The GLR
// pass scores the fresh fit from the same logs. Each slot also caches the
// floored baseline log-density at its gap; a new gap invalidates its own
// slot, and set_baseline()/rebase() invalidate every slot. The cache is
// sound only because a baseline is a pure function of x (see
// set_baseline()).
//
// Everything here is deterministic: same gap sequence in, same fits and
// decisions out, independent of thread count (callers own the threading).
// The model-layer bridge (MleFit -> FailureDistSpec) lives in
// model/failure_dist.hpp so this module stays free of model dependencies.

#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

namespace ayd::stats {

/// Families the online estimator can fit. Mirrors the analytic subset of
/// model::FailureDistKind without depending on the model layer.
enum class FitFamily : int {
  kExponential,
  kWeibull,
  kLogNormal,
};

[[nodiscard]] const char* fit_family_name(FitFamily family);

/// Value returned by log_pdf() for points outside the support (and the
/// clamp applied to vanishing densities) so likelihood ratios stay finite:
/// roughly log(DBL_MIN·1e-20).
inline constexpr double kLogDensityFloor = -745.0;

/// One fitted family: parameters, implied arrival rate, and the maximized
/// log-likelihood of the sample it was fitted on.
struct MleFit {
  FitFamily family = FitFamily::kExponential;
  /// Weibull shape k or lognormal sigma; 1 for the exponential.
  double shape = 1.0;
  /// Weibull scale lambda, lognormal exp(mu) (the median), or the
  /// exponential mean.
  double scale = 0.0;
  /// Arrival rate = 1 / model mean, the quantity FailureModel speaks.
  /// Round-trip contract: FailureDistSpec::instantiate(rate) with the
  /// matching spec reproduces exactly this density.
  double rate = 0.0;
  /// Maximized log-likelihood over the fitted sample.
  double log_likelihood = 0.0;
  /// Sample size the fit used.
  std::size_t count = 0;
  /// False when the sample was too small/degenerate to fit.
  bool valid = false;

  /// Log-density of the fitted model at x, floored at kLogDensityFloor
  /// (x <= 0 is outside every family's support).
  [[nodiscard]] double log_pdf(double x) const;
  /// Akaike information criterion: 2·params - 2·log_likelihood
  /// (exponential counts 1 parameter, Weibull/lognormal 2).
  [[nodiscard]] double aic() const;
};

/// The sample every fitter reads: positive, finite gaps and their natural
/// logs, index-aligned, in sample order. OnlineFit passes its window with
/// the logs it cached as the gaps arrived.
struct LogSample {
  std::span<const double> xs;
  std::span<const double> logs;
};

/// Exponential MLE (mean = sample mean). Requires >= 1 gap.
[[nodiscard]] MleFit fit_exponential_mle(LogSample s);
/// Weibull MLE: shape from the profile likelihood equation, solved by a
/// safeguarded Newton iteration on the log gaps (started at the Gumbel
/// moment estimate of the logs, bisecting whenever a step leaves the sign
/// bracket, to about 1e-11 relative). The logs are shifted by their
/// maximum so x^k never overflows. The shape is exactly 0.05 or 20 when
/// the score has no root inside that clamp. Requires >= 2 gaps.
[[nodiscard]] MleFit fit_weibull_mle(LogSample s);
/// Lognormal MLE (closed form: mean/sd of log gaps), sigma clamped to
/// [1e-6, 10]. Requires >= 2 gaps.
[[nodiscard]] MleFit fit_lognormal_mle(LogSample s);
/// Fits all three families and keeps the lowest AIC. Ties (and the
/// degenerate small-sample case) resolve deterministically in declaration
/// order: exponential, then Weibull, then lognormal. A sample too small
/// for a family gives an invalid fit, never a throw.
[[nodiscard]] MleFit fit_best_mle(LogSample s);

/// Tuning of the rolling estimator + drift detector.
struct OnlineFitOptions {
  /// Ring capacity: the fit window (most recent events).
  std::size_t window = 256;
  /// No refits (hence no drift decisions) before this many events.
  std::size_t min_events = 64;
  /// Refit every this many accepted events once warmed up.
  std::size_t refit_interval = 16;
  /// Confidence level of the Student-t bound on the mean LLR.
  double drift_ci_level = 0.99;
  /// Noise floor: mean per-event LLR must exceed this in addition to the
  /// CI bound clearing zero. Units are nats/event; ~0.02 rejects window
  /// noise on stationary streams while catching a Weibull k 0.7 -> 1.4
  /// regime switch within a window (tests/online_fit_test.cpp pins the
  /// false-positive rate).
  double min_mean_llr = 0.02;
};

/// Outcome of feeding one gap to OnlineFit.
struct DriftDecision {
  /// True when this event triggered a scheduled refit.
  bool refit_ran = false;
  /// True when the refit cleared the drift guard (CI lower bound > 0 and
  /// mean LLR >= min_mean_llr). Never true without refit_ran.
  bool drift = false;
  /// Mean per-event LLR of the fresh fit vs the baseline (refits only).
  double mean_llr = 0.0;
  /// Student-t lower confidence bound of the mean LLR (refits only).
  double llr_ci_lo = 0.0;
  /// The fresh fit (refits only; check fit.valid).
  MleFit fit{};
};

/// Rolling-window MLE with GLR drift detection against a deployed
/// baseline density. Single-threaded by design; determinism comes from
/// being a pure function of the gap sequence.
class OnlineFit {
 public:
  /// Log-density of the currently deployed model, used as the GLR null.
  using LogDensity = std::function<double(double)>;

  /// Throws util::InvalidArgument when options.window or
  /// options.refit_interval is 0.
  explicit OnlineFit(OnlineFitOptions options = {});

  /// Installs the deployed model's log-density. Until set, drift can
  /// never fire (there is nothing to improve on). The baseline must be a
  /// pure function of x: its value at each window gap is cached until the
  /// next set_baseline()/rebase().
  void set_baseline(LogDensity baseline);

  /// Feeds one inter-arrival gap. Non-finite or non-positive gaps are
  /// ignored (the telemetry layer reports them; the estimator must not
  /// corrupt its window). Returns the refit/drift outcome.
  DriftDecision add(double gap);

  /// Re-bases the GLR null to the latest fit — call after acting on a
  /// drift decision (re-plan published) so subsequent windows are judged
  /// against the newly deployed model.
  void rebase();

  /// Fits the current window on demand (same result a scheduled refit
  /// would produce right now).
  [[nodiscard]] MleFit fit() const;
  /// Latest scheduled-refit result (invalid before the first refit).
  [[nodiscard]] const MleFit& last_fit() const { return last_fit_; }

  /// Accepted (positive, finite) events so far.
  [[nodiscard]] std::size_t count() const { return accepted_; }
  /// Events currently in the window (<= options().window).
  [[nodiscard]] std::size_t window_fill() const { return filled_; }
  [[nodiscard]] const OnlineFitOptions& options() const { return options_; }

 private:
  /// One window slot: the gap, its log (computed once, shared by every
  /// fitter) and the floored baseline log-density at the gap (computed at
  /// most once per installed baseline).
  struct Slot {
    double gap = 0.0;
    double log_gap = 0.0;
    double baseline = 0.0;
    bool baseline_cached = false;
  };

  /// Calls f(slot index) for every occupied slot, oldest first.
  template <typename F>
  void for_each_window_slot(F&& f) const;
  void invalidate_baseline_cache();

  OnlineFitOptions options_;
  std::vector<Slot> ring_;
  std::size_t head_ = 0;    ///< next write slot
  std::size_t filled_ = 0;  ///< occupied slots
  std::size_t accepted_ = 0;
  LogDensity baseline_;
  MleFit last_fit_{};
  /// The window, oldest first, as the fitters read it.
  mutable std::vector<double> scratch_xs_;
  mutable std::vector<double> scratch_logs_;
};

}  // namespace ayd::stats
