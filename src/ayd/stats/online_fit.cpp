#include "ayd/stats/online_fit.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "ayd/stats/ci.hpp"
#include "ayd/stats/running.hpp"
#include "ayd/util/contracts.hpp"

namespace ayd::stats {
namespace {

constexpr double kWeibullShapeMin = 0.05;
constexpr double kWeibullShapeMax = 20.0;
/// Newton stops once its next step would move the shape by at most this
/// fraction (the returned shape is then within about that of the root).
constexpr double kWeibullShapeRelTol = 1e-11;
constexpr int kWeibullMaxIterations = 100;
constexpr double kLogNormalSigmaMin = 1e-6;
constexpr double kLogNormalSigmaMax = 10.0;

/// A valid fit's log-density as a function of (x, ln x), floored at
/// kLogDensityFloor, with the per-fit logarithms taken once: the GLR pass
/// scores a whole window from its cached logs, and MleFit::log_pdf is the
/// one-point case.
class FitLogPdf {
 public:
  explicit FitLogPdf(const MleFit& fit)
      : family_(fit.family),
        shape_(fit.shape),
        scale_(fit.scale),
        log_scale_(std::log(fit.scale)) {
    if (family_ == FitFamily::kWeibull) {
      log_norm_ = std::log(fit.shape / fit.scale);
    } else if (family_ == FitFamily::kLogNormal) {
      log_norm_ = std::log(fit.shape);
      half_log_2pi_ = 0.5 * std::log(2.0 * M_PI);
    }
  }

  /// Requires x > 0, finite, and log_x == std::log(x).
  double operator()(double x, double log_x) const {
    double lp = kLogDensityFloor;
    switch (family_) {
      case FitFamily::kExponential:
        lp = -log_scale_ - x / scale_;
        break;
      case FitFamily::kWeibull: {
        // ln(k/lambda) + (k-1) ln(x/lambda) - (x/lambda)^k
        const double log_z = log_x - log_scale_;
        lp = log_norm_ + (shape_ - 1.0) * std::max(log_z, kLogDensityFloor) -
             std::exp(shape_ * log_z);
        break;
      }
      case FitFamily::kLogNormal: {
        const double d = (log_x - log_scale_) / shape_;
        lp = -log_x - log_norm_ - half_log_2pi_ - 0.5 * d * d;
        break;
      }
    }
    if (!std::isfinite(lp)) return kLogDensityFloor;
    return std::max(lp, kLogDensityFloor);
  }

 private:
  FitFamily family_;
  double shape_;
  double scale_;
  double log_scale_;
  double log_norm_ = 0.0;
  double half_log_2pi_ = 0.0;
};

/// Weibull shape MLE and S0 (below) at that shape.
struct WeibullShape {
  double k;
  double s0;
};

/// Weibull shape MLE from the logs alone. With z = ln x - max(ln x) and
/// S_j(k) = sum(e^{k z} z^j), the profile likelihood score
///   g(k) = S1/S0 - 1/k - mean(z),   g'(k) = S2/S0 - (S1/S0)^2 + 1/k^2,
/// is monotone increasing (g' is a weighted variance plus 1/k^2) and zero
/// at the MLE. Shifting by the largest log leaves g unchanged and keeps
/// every e^{k z} in (0, 1], so no sample magnitude can overflow.
///
/// Safeguarded Newton: starts from the Gumbel moment estimate
/// pi / (sqrt(6) sd(ln x)) clamped to [kWeibullShapeMin, kWeibullShapeMax]
/// and keeps a sign bracket. A step past a clamp edge not yet evaluated
/// evaluates that edge, which is returned exactly when the score there
/// has the wrong sign (no root inside the clamp); any other step that
/// leaves the bracket bisects it. Returns the last evaluated shape once
/// the next step would move it by at most kWeibullShapeRelTol.
WeibullShape weibull_shape(std::span<const double> logs, double max_log,
                           double mean_z, double sd_log) {
  struct Score {
    double g;
    double slope;
    double s0;
  };
  const auto score = [&](double k) {
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    for (double lx : logs) {
      const double z = lx - max_log;
      const double p = std::exp(k * z);
      s0 += p;
      s1 += p * z;
      s2 += p * z * z;
    }
    const double m1 = s1 / s0;
    return Score{m1 - 1.0 / k - mean_z, s2 / s0 - m1 * m1 + 1.0 / (k * k),
                 s0};
  };

  double lo = kWeibullShapeMin;
  double hi = kWeibullShapeMax;
  bool lo_evaluated = false;
  bool hi_evaluated = false;
  double k = std::clamp(M_PI / (std::sqrt(6.0) * sd_log), lo, hi);
  for (int it = 0;; ++it) {
    const Score s = score(k);
    // Heavier-tailed than the clamp allows, or a near-degenerate spike.
    if (k == kWeibullShapeMin && s.g >= 0.0) return {k, s.s0};
    if (k == kWeibullShapeMax && s.g <= 0.0) return {k, s.s0};
    if (s.g > 0.0) {
      hi = k;
      hi_evaluated = true;
    } else {
      lo = k;
      lo_evaluated = true;
    }
    double next = k - s.g / s.slope;
    if (next <= lo && !lo_evaluated) {
      next = kWeibullShapeMin;
    } else if (next >= hi && !hi_evaluated) {
      next = kWeibullShapeMax;
    } else {
      if (!(next > lo && next < hi)) next = 0.5 * (lo + hi);
      if (std::abs(next - k) <= kWeibullShapeRelTol * k ||
          it == kWeibullMaxIterations) {
        return {k, s.s0};
      }
    }
    k = next;
  }
}

}  // namespace

MleFit fit_exponential_mle(LogSample s) {
  MleFit fit;
  fit.family = FitFamily::kExponential;
  fit.count = s.xs.size();
  if (s.xs.empty()) return fit;
  double sum = 0.0;
  for (double x : s.xs) sum += x;
  const double mean = sum / static_cast<double>(s.xs.size());
  if (!(mean > 0.0) || !std::isfinite(mean)) return fit;
  fit.shape = 1.0;
  fit.scale = mean;
  fit.rate = 1.0 / mean;
  // ll = -n ln(mean) - sum(x)/mean = -n (ln(mean) + 1)
  fit.log_likelihood =
      -static_cast<double>(s.xs.size()) * (std::log(mean) + 1.0);
  fit.valid = true;
  return fit;
}

MleFit fit_weibull_mle(LogSample s) {
  MleFit fit;
  fit.family = FitFamily::kWeibull;
  fit.count = s.xs.size();
  if (s.xs.size() < 2) return fit;
  const auto n = static_cast<double>(s.xs.size());
  double sum_log_x = 0.0;
  double max_log = s.logs.front();
  for (double lx : s.logs) {
    sum_log_x += lx;
    max_log = std::max(max_log, lx);
  }
  const double mean_log = sum_log_x / n;
  double sum_sq = 0.0;
  for (double lx : s.logs) sum_sq += (lx - mean_log) * (lx - mean_log);
  const auto [k_hat, s0] = weibull_shape(s.logs, max_log, mean_log - max_log,
                                         std::sqrt(sum_sq / n));

  // At the MLE, lambda^k = mean(x^k) = e^{k max_log} S0 / n.
  const double log_lambda = max_log + std::log(s0 / n) / k_hat;
  const double lambda = std::exp(log_lambda);
  if (!(lambda > 0.0) || !std::isfinite(lambda)) return fit;

  fit.shape = k_hat;
  fit.scale = lambda;
  // Model mean = lambda * Gamma(1 + 1/k); rate is its reciprocal, so a
  // FailureDistSpec::weibull(k) instantiated at this rate has scale
  // exactly `lambda` again (the round-trip contract).
  fit.rate = 1.0 / (lambda * std::tgamma(1.0 + 1.0 / k_hat));
  // ll = n ln k - n k ln(lambda) + (k-1) sum(ln x) - sum((x/lambda)^k),
  // and at the MLE sum((x/lambda)^k) = n.
  fit.log_likelihood = n * std::log(k_hat) - n * k_hat * log_lambda +
                       (k_hat - 1.0) * sum_log_x - n;
  fit.valid = std::isfinite(fit.log_likelihood) && fit.rate > 0.0;
  return fit;
}

MleFit fit_lognormal_mle(LogSample s) {
  MleFit fit;
  fit.family = FitFamily::kLogNormal;
  fit.count = s.xs.size();
  if (s.xs.size() < 2) return fit;
  const auto n = static_cast<double>(s.xs.size());
  RunningStats logs;
  for (double lx : s.logs) logs.add(lx);
  const double mu = logs.mean();
  // MLE uses the population (1/n) variance of the logs.
  double sigma = std::sqrt(logs.population_variance());
  sigma = std::clamp(sigma, kLogNormalSigmaMin, kLogNormalSigmaMax);

  fit.shape = sigma;
  fit.scale = std::exp(mu);
  // Model mean = exp(mu + sigma^2/2); the spec's instantiate(rate)
  // reconstructs mu' = -ln(rate) - sigma^2/2 = mu exactly.
  fit.rate = std::exp(-(mu + 0.5 * sigma * sigma));
  // ll = -n/2 ln(2 pi) - n ln(sigma) - sum(ln x) - sum((ln x - mu)^2) /
  // (2 sigma^2); the last sum is n * population_variance at the MLE (the
  // clamp makes it inexact only in pathological sigma ranges).
  double sum_log_x = 0.0;
  double sum_sq = 0.0;
  for (double lx : s.logs) {
    sum_log_x += lx;
    sum_sq += (lx - mu) * (lx - mu);
  }
  fit.log_likelihood = -0.5 * n * std::log(2.0 * M_PI) -
                       n * std::log(sigma) - sum_log_x -
                       sum_sq / (2.0 * sigma * sigma);
  fit.valid = std::isfinite(fit.log_likelihood) &&
              std::isfinite(fit.rate) && fit.rate > 0.0;
  return fit;
}

MleFit fit_best_mle(LogSample s) {
  // Declaration order is the deterministic tie-break: a candidate must
  // strictly beat the incumbent's AIC to replace it, so equal-likelihood
  // samples always report the simplest family.
  MleFit best = fit_exponential_mle(s);
  for (const MleFit& cand : {fit_weibull_mle(s), fit_lognormal_mle(s)}) {
    if (!cand.valid) continue;
    if (!best.valid || cand.aic() < best.aic()) best = cand;
  }
  return best;
}

const char* fit_family_name(FitFamily family) {
  switch (family) {
    case FitFamily::kExponential: return "exponential";
    case FitFamily::kWeibull: return "weibull";
    case FitFamily::kLogNormal: return "lognormal";
  }
  return "unknown";
}

double MleFit::log_pdf(double x) const {
  if (!valid || !(x > 0.0) || !std::isfinite(x)) return kLogDensityFloor;
  return FitLogPdf(*this)(x, std::log(x));
}

double MleFit::aic() const {
  const double params = family == FitFamily::kExponential ? 1.0 : 2.0;
  return 2.0 * params - 2.0 * log_likelihood;
}

OnlineFit::OnlineFit(OnlineFitOptions options) : options_(options) {
  AYD_REQUIRE(options_.window >= 1, "OnlineFit: window must be >= 1");
  AYD_REQUIRE(options_.refit_interval >= 1,
              "OnlineFit: refit_interval must be >= 1");
  ring_.resize(options_.window);
}

void OnlineFit::set_baseline(LogDensity baseline) {
  baseline_ = std::move(baseline);
  invalidate_baseline_cache();
}

void OnlineFit::invalidate_baseline_cache() {
  for (Slot& slot : ring_) slot.baseline_cached = false;
}

template <typename F>
void OnlineFit::for_each_window_slot(F&& f) const {
  // With a full ring the oldest sample sits at head_; before that the
  // window is slots [0, filled_).
  const std::size_t start = filled_ < ring_.size() ? 0 : head_;
  for (std::size_t i = start; i < filled_; ++i) f(i);
  for (std::size_t i = 0; i < start; ++i) f(i);
}

MleFit OnlineFit::fit() const {
  scratch_xs_.clear();
  scratch_logs_.clear();
  for_each_window_slot([&](std::size_t i) {
    scratch_xs_.push_back(ring_[i].gap);
    scratch_logs_.push_back(ring_[i].log_gap);
  });
  return fit_best_mle({scratch_xs_, scratch_logs_});
}

DriftDecision OnlineFit::add(double gap) {
  DriftDecision decision;
  if (!std::isfinite(gap) || !(gap > 0.0)) return decision;

  ring_[head_] = Slot{gap, std::log(gap), 0.0, false};
  head_ = (head_ + 1) % ring_.size();
  filled_ = std::min(filled_ + 1, ring_.size());
  ++accepted_;

  if (accepted_ < options_.min_events) return decision;
  if ((accepted_ - options_.min_events) % options_.refit_interval != 0) {
    return decision;
  }

  decision.refit_ran = true;
  decision.fit = fit();
  last_fit_ = decision.fit;
  if (!decision.fit.valid || !baseline_) return decision;

  // GLR over the window: per-event log-likelihood ratio of the fresh fit
  // against the deployed baseline. The fit maximizes the window
  // likelihood, so the mean LLR is >= 0 by construction whenever the
  // baseline is in the fitted family — the Student-t lower bound plus the
  // noise floor is what separates real drift from that in-sample bias.
  // The fresh fit is scored from each slot's cached log; the baseline
  // term is computed once per (gap, baseline).
  const FitLogPdf fresh(decision.fit);
  RunningStats llr;
  for_each_window_slot([&](std::size_t i) {
    Slot& s = ring_[i];
    if (!s.baseline_cached) {
      s.baseline = std::max(baseline_(s.gap), kLogDensityFloor);
      s.baseline_cached = true;
    }
    llr.add(fresh(s.gap, s.log_gap) - s.baseline);
  });
  const auto ci = mean_ci_student(llr, options_.drift_ci_level);
  decision.mean_llr = llr.mean();
  decision.llr_ci_lo = ci.lo;
  decision.drift =
      ci.lo > 0.0 && decision.mean_llr >= options_.min_mean_llr;
  return decision;
}

void OnlineFit::rebase() {
  if (!last_fit_.valid) return;
  const MleFit fit = last_fit_;
  baseline_ = [fit](double x) { return fit.log_pdf(x); };
  invalidate_baseline_cache();
}

}  // namespace ayd::stats
