// Pluggable inter-arrival distributions for the failure process.
//
// The paper (and FailureModel's rate algebra) assumes failures form a
// Poisson process, but field studies of real HPC failure logs
// consistently fit Weibull (bursty for shape k < 1) and lognormal
// inter-arrival times. This module separates the two concerns:
//
//  * FailureDistSpec — the value-semantic *shape* of the inter-arrival
//    law (exponential / Weibull k / lognormal sigma / an empirical trace
//    replay). It travels inside FailureModel, serializes to the CLI and
//    scenario syntax ("weibull:k=0.7"), and is what grids sweep.
//  * FailureDistribution — the spec instantiated at a concrete platform
//    rate (fail-stop or silent rate at P processors): pdf/cdf/quantile/
//    mean plus quantile-inversion sampling from an RngStream. The mean
//    inter-arrival is always 1/rate, so FailureModel's rate projections
//    keep their meaning; only the shape around that mean changes.
//
// Semantics under non-exponential laws: the simulators renew the arrival
// clock at each attempt/recovery boundary (a renewal process per
// execution segment). For the exponential this coincides with the
// memoryless process the paper analyses, and the simulators keep their
// historical draw sequence bit-for-bit; the analytic formulas in
// ayd::core remain exponential-only (see README "Failure distributions").

#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "ayd/rng/stream.hpp"

namespace ayd::io {
class JsonWriter;
}

namespace ayd::stats {
struct MleFit;
}

namespace ayd::model {

enum class FailureDistKind : int {
  kExponential,  ///< Poisson arrivals (the paper's model; the default)
  kWeibull,      ///< Weibull(k): k < 1 bursty, k > 1 wear-out
  kLogNormal,    ///< lognormal(sigma) inter-arrivals
  kTraceReplay,  ///< empirical gaps replayed from a failure log
};

/// A spec instantiated at a concrete arrival rate. Implementations are
/// immutable and safe to share across threads.
class FailureDistribution {
 public:
  virtual ~FailureDistribution() = default;

  [[nodiscard]] virtual FailureDistKind kind() const = 0;
  /// Arrival rate = 1/mean inter-arrival; 0 means "never fails".
  [[nodiscard]] virtual double rate() const = 0;
  /// Density at x (0 for x < 0; empirical traces have no density and
  /// return 0 everywhere).
  [[nodiscard]] virtual double pdf(double x) const = 0;
  /// P(arrival <= x); 0 for x <= 0.
  [[nodiscard]] virtual double cdf(double x) const = 0;
  /// Inverse CDF on [0, 1); quantile(0) is the infimum of the support.
  /// The degenerate rate-0 distribution yields +inf everywhere.
  [[nodiscard]] virtual double quantile(double u) const = 0;
  /// One inter-arrival draw by quantile inversion. The analytic kinds
  /// consume exactly one engine word when rate() > 0 (the exponential
  /// word-for-word like the historical sampler); trace replay draws an
  /// index by Lemire rejection and may occasionally consume more. The
  /// degenerate rate-0 case consumes none, matching the simulators'
  /// historical stream discipline (error-free sources do not shift the
  /// stream).
  [[nodiscard]] virtual double sample(rng::RngStream& rng) const = 0;
  /// Memoryless laws let the simulators keep pending arrivals across
  /// renewal points (the exponential fast path).
  [[nodiscard]] virtual bool memoryless() const { return false; }

  // --- batched sampling -------------------------------------------------
  //
  // The analytic kinds factor a draw into a *unit variate* (the
  // rate-independent part of the quantile inversion: the rate-1
  // exponential deviate, the unit-scale Weibull deviate, or the standard
  // normal quantile) and a cheap per-distribution scaling. The unit part
  // is what the batched samplers precompute in bulk; because two
  // distributions instantiated from the same spec at different rates
  // (the simulators' fail-stop and silent sources) share one unit
  // transform, a single block can feed both without perturbing the
  // shared stream's draw order.
  //
  // Reproducibility contract (pinned by rng/failure-dist tests):
  //   from_unit(z_i) with z from sample_units() is bit-identical to
  //   sample() fed the same engine words, and sample_value(u) is
  //   bit-identical to sample() had it drawn the uniform u.

  /// True when one sample() consumes exactly one uniform01 word and the
  /// value factors through the unit-variate API below. False for trace
  /// replay (variable word consumption via Lemire rejection) and the
  /// degenerate rate-0 distribution (no consumption).
  [[nodiscard]] virtual bool unit_samplable() const { return false; }
  /// The value sample() would have produced had it drawn the uniform `u`
  /// (in [0, 1)). Only meaningful when unit_samplable(); the default
  /// throws util::LogicError.
  [[nodiscard]] virtual double sample_value(double u) const;
  /// Bulk unit-variate fill: consumes exactly `n` uniform01 words in
  /// order and writes the rate-independent deviates. Only meaningful when
  /// unit_samplable(); the default throws util::LogicError.
  virtual void sample_units(rng::RngStream& rng, double* z,
                            std::size_t n) const;
  /// Scales a unit variate to an inter-arrival time;
  /// from_unit(unit-of(u)) == sample_value(u) bitwise. Only meaningful
  /// when unit_samplable(); the default throws util::LogicError.
  [[nodiscard]] virtual double from_unit(double z) const;

  // --- SIMD-tier bulk sampling ------------------------------------------
  //
  // Tier-aware variants dispatched through rng::simd::active_tier().
  // They consume exactly the same engine words in the same order as
  // their scalar counterparts; under the scalar (reference) tier the
  // values are bit-identical too, while under a SIMD tier the
  // transcendental transforms run vectorized and may differ from the
  // scalar tier by a few ULP (the two-golden-tier policy,
  // docs/reproducing-the-paper.md). The scalar methods above are pinned
  // and never change.

  /// Tier-aware sample_units: same words, same order; bit-identical to
  /// sample_units under the scalar tier. Default forwards to
  /// sample_units (so non-analytic kinds keep their exact behaviour).
  /// Callers scale the deviates with from_unit one at a time.
  virtual void sample_units_fast(rng::RngStream& rng, double* z,
                                 std::size_t n) const;
};

/// Value-semantic shape spec; lives inside FailureModel.
class FailureDistSpec {
 public:
  /// Default-constructs the exponential (the paper's model).
  FailureDistSpec() = default;

  [[nodiscard]] static FailureDistSpec exponential();
  /// Weibull with shape k > 0 (k == 1 reduces to the exponential but is
  /// sampled through the Weibull quantile, so streams differ).
  [[nodiscard]] static FailureDistSpec weibull(double shape);
  /// Lognormal with log-space standard deviation sigma > 0.
  [[nodiscard]] static FailureDistSpec lognormal(double sigma);
  /// Replays empirical inter-arrival gaps (seconds, each >= 0, mean > 0)
  /// from a failure log, rescaled so the mean matches the platform rate.
  /// `source` labels the origin (typically the CSV path); see
  /// sim::read_failure_log_csv for the loader.
  [[nodiscard]] static FailureDistSpec trace_replay(
      std::vector<double> gaps, std::string source = "");

  [[nodiscard]] FailureDistKind kind() const { return kind_; }
  [[nodiscard]] bool memoryless() const {
    return kind_ == FailureDistKind::kExponential;
  }
  /// Shape parameter: Weibull k or lognormal sigma (1 otherwise).
  [[nodiscard]] double shape() const { return shape_; }
  /// Raw (unscaled) trace gaps; empty for the analytic kinds.
  [[nodiscard]] const std::vector<double>& trace_gaps() const;
  [[nodiscard]] const std::string& trace_source() const { return source_; }

  /// Instantiates the shape at an arrival rate (mean inter-arrival
  /// 1/rate). rate == 0 yields the degenerate "never fails" distribution
  /// (+inf samples, zero CDF) for every kind — the error-free path.
  [[nodiscard]] std::unique_ptr<const FailureDistribution> instantiate(
      double rate) const;

  /// Scenario / CLI syntax: "exponential", "weibull:k=0.7",
  /// "lognormal:sigma=1.2", "trace:<source>".
  [[nodiscard]] std::string to_string() const;
  /// Parses the to_string() syntax (analytic kinds only; "trace:PATH"
  /// must be loaded through sim::read_failure_log_csv + trace_replay).
  /// Throws util::InvalidArgument on unknown kinds or parameters.
  [[nodiscard]] static FailureDistSpec parse(const std::string& text);

  /// Serializes as a JSON object: {"kind": ..., "shape": ...} (trace
  /// specs include "source" and "gaps").
  void write_json(io::JsonWriter& w) const;

  friend bool operator==(const FailureDistSpec& a, const FailureDistSpec& b);

 private:
  FailureDistKind kind_ = FailureDistKind::kExponential;
  double shape_ = 1.0;
  // Trace gaps are shared, not copied: specs travel by value through
  // FailureModel/System and a simulator is constructed per replica, so
  // holding a 10k-row machine log by value would copy and re-sort it
  // hundreds of times per grid point. `sorted_gaps_` is computed once at
  // construction; instantiations only scale lazily.
  std::shared_ptr<const std::vector<double>> gaps_;
  std::shared_ptr<const std::vector<double>> sorted_gaps_;
  std::string source_;
};

// --- telemetry fitting ---------------------------------------------------
//
// The model-vocabulary half of the online estimator (stats/online_fit):
// an MleFit carries family + parameters + implied arrival rate, and
// failure_dist_from_fit translates that into a spec + rate pair such that
// `fitted.spec.instantiate(fitted.rate)` reproduces exactly the fitted
// density. The fitted rate is the *total* rate of the observed arrival
// process; callers deploying it onto a System divide by the processor
// count first (FailureModel's lambda_ind is per processor).

/// A distribution estimate expressed in model vocabulary.
struct FittedFailureDist {
  FailureDistSpec spec;
  /// Total arrival rate of the observed process (1 / fitted mean gap).
  double rate = 0.0;
  /// Maximized log-likelihood over the fitted sample.
  double log_likelihood = 0.0;
  /// Sample size the fit used.
  std::size_t count = 0;
  /// False when the sample was too small or degenerate to fit.
  bool valid = false;
};

/// Translates a stats-layer fit into a spec + rate pair (see above).
[[nodiscard]] FittedFailureDist failure_dist_from_fit(
    const stats::MleFit& fit);

}  // namespace ayd::model
