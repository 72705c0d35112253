#include "ayd/model/failure_dist.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <utility>

#include "ayd/io/json.hpp"
#include "ayd/rng/simd.hpp"
#include "ayd/stats/online_fit.hpp"
#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::model {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// The rate-0 degenerate case shared by every kind: the arrival never
/// comes. Keeping it a distinct implementation is what makes the
/// error-free path (lambda == 0) yield +inf instead of the NaNs a naive
/// quantile inversion with an infinite scale would produce.
class NeverFails final : public FailureDistribution {
 public:
  explicit NeverFails(FailureDistKind kind) : kind_(kind) {}

  [[nodiscard]] FailureDistKind kind() const override { return kind_; }
  [[nodiscard]] double rate() const override { return 0.0; }
  [[nodiscard]] double pdf(double) const override { return 0.0; }
  [[nodiscard]] double cdf(double) const override { return 0.0; }
  [[nodiscard]] double quantile(double) const override { return kInf; }
  [[nodiscard]] double sample(rng::RngStream&) const override { return kInf; }
  [[nodiscard]] bool memoryless() const override { return true; }

 private:
  FailureDistKind kind_;
};

class ExponentialDist final : public FailureDistribution {
 public:
  explicit ExponentialDist(double rate) : rate_(rate) {}

  [[nodiscard]] FailureDistKind kind() const override {
    return FailureDistKind::kExponential;
  }
  [[nodiscard]] double rate() const override { return rate_; }
  [[nodiscard]] double pdf(double x) const override {
    return x < 0.0 ? 0.0 : rate_ * std::exp(-rate_ * x);
  }
  [[nodiscard]] double cdf(double x) const override {
    return x <= 0.0 ? 0.0 : -std::expm1(-rate_ * x);
  }
  [[nodiscard]] double quantile(double u) const override {
    AYD_REQUIRE(u >= 0.0 && u < 1.0, "quantile argument must be in [0,1)");
    return -std::log1p(-u) / rate_;
  }
  [[nodiscard]] double sample(rng::RngStream& rng) const override {
    // Must stay word-for-word identical to the simulators' historical
    // draw so exponential experiments remain bit-reproducible.
    return rng.next_exponential(rate_);
  }
  [[nodiscard]] bool memoryless() const override { return true; }
  [[nodiscard]] bool unit_samplable() const override { return true; }
  [[nodiscard]] double sample_value(double u) const override {
    // Exactly rng::exponential's arithmetic on the word it would draw.
    return -std::log(1.0 - u) / rate_;
  }
  void sample_units(rng::RngStream& rng, double* z,
                    std::size_t n) const override {
    rng.fill_uniform01(z, n);
    for (std::size_t i = 0; i < n; ++i) z[i] = -std::log(1.0 - z[i]);
  }
  [[nodiscard]] double from_unit(double z) const override {
    return z / rate_;
  }
  void sample_units_fast(rng::RngStream& rng, double* z,
                         std::size_t n) const override {
    rng.fill_uniform01(z, n);
    rng::simd::exponential_units(z, n);
  }

 private:
  double rate_;
};

class WeibullDist final : public FailureDistribution {
 public:
  WeibullDist(double shape, double rate)
      : k_(shape),
        inv_k_(1.0 / shape),
        scale_(1.0 / (rate * std::tgamma(1.0 + 1.0 / shape))),
        rate_(rate) {
    // Defense in depth behind FailureDistSpec::weibull's shape bounds: a
    // zero/inf/NaN scale would silently turn every sample into 0 or NaN.
    AYD_REQUIRE(std::isfinite(scale_) && scale_ > 0.0,
                "Weibull shape/rate combination has no finite scale");
  }

  [[nodiscard]] FailureDistKind kind() const override {
    return FailureDistKind::kWeibull;
  }
  [[nodiscard]] double rate() const override { return rate_; }
  [[nodiscard]] double pdf(double x) const override {
    if (x <= 0.0) return 0.0;
    const double z = x / scale_;
    return k_ / scale_ * std::pow(z, k_ - 1.0) * std::exp(-std::pow(z, k_));
  }
  [[nodiscard]] double cdf(double x) const override {
    return x <= 0.0 ? 0.0 : -std::expm1(-std::pow(x / scale_, k_));
  }
  [[nodiscard]] double quantile(double u) const override {
    AYD_REQUIRE(u >= 0.0 && u < 1.0, "quantile argument must be in [0,1)");
    return scale_ * std::pow(-std::log1p(-u), 1.0 / k_);
  }
  [[nodiscard]] double sample(rng::RngStream& rng) const override {
    return quantile(rng.next_uniform01());
  }
  [[nodiscard]] bool unit_samplable() const override { return true; }
  [[nodiscard]] double sample_value(double u) const override {
    return quantile(u);
  }
  void sample_units(rng::RngStream& rng, double* z,
                    std::size_t n) const override {
    rng.fill_uniform01(z, n);
    // Unit-scale Weibull deviate; scale_ is applied in from_unit so one
    // block can serve both the fail-stop and silent instantiations.
    for (std::size_t i = 0; i < n; ++i) {
      z[i] = std::pow(-std::log1p(-z[i]), inv_k_);
    }
  }
  [[nodiscard]] double from_unit(double z) const override {
    return scale_ * z;
  }
  void sample_units_fast(rng::RngStream& rng, double* z,
                         std::size_t n) const override {
    rng.fill_uniform01(z, n);
    rng::simd::weibull_units(z, n, inv_k_);
  }

 private:
  double k_;
  double inv_k_;
  double scale_;
  double rate_;
};

class LogNormalDist final : public FailureDistribution {
 public:
  LogNormalDist(double sigma, double rate)
      : sigma_(sigma), mu_(-std::log(rate) - 0.5 * sigma * sigma),
        rate_(rate) {}

  [[nodiscard]] FailureDistKind kind() const override {
    return FailureDistKind::kLogNormal;
  }
  [[nodiscard]] double rate() const override { return rate_; }
  [[nodiscard]] double pdf(double x) const override {
    if (x <= 0.0) return 0.0;
    const double z = (std::log(x) - mu_) / sigma_;
    constexpr double kSqrt2Pi = 2.506628274631000502;
    return std::exp(-0.5 * z * z) / (x * sigma_ * kSqrt2Pi);
  }
  [[nodiscard]] double cdf(double x) const override {
    if (x <= 0.0) return 0.0;
    const double z = (std::log(x) - mu_) / sigma_;
    return 0.5 * std::erfc(-z / std::numbers::sqrt2);
  }
  [[nodiscard]] double quantile(double u) const override {
    AYD_REQUIRE(u >= 0.0 && u < 1.0, "quantile argument must be in [0,1)");
    if (u == 0.0) return 0.0;
    return std::exp(mu_ + sigma_ * rng::detail::normal_quantile(u));
  }
  [[nodiscard]] double sample(rng::RngStream& rng) const override {
    double u = rng.next_uniform01();
    if (u <= 0.0) u = 0x1.0p-53;  // quantile(0) would be 0
    return quantile(u);
  }
  [[nodiscard]] bool unit_samplable() const override { return true; }
  [[nodiscard]] double sample_value(double u) const override {
    if (u <= 0.0) u = 0x1.0p-53;
    return quantile(u);
  }
  void sample_units(rng::RngStream& rng, double* z,
                    std::size_t n) const override {
    rng.fill_uniform01(z, n);
    // Standard normal quantile; mu_/sigma_ scaling happens in from_unit
    // with exactly quantile()'s expression, so the factorization is
    // bitwise invisible.
    for (std::size_t i = 0; i < n; ++i) {
      z[i] = rng::detail::normal_quantile(z[i] <= 0.0 ? 0x1.0p-53 : z[i]);
    }
  }
  [[nodiscard]] double from_unit(double z) const override {
    return std::exp(mu_ + sigma_ * z);
  }
  void sample_units_fast(rng::RngStream& rng, double* z,
                         std::size_t n) const override {
    rng.fill_uniform01(z, n);
    rng::simd::lognormal_units(z, n);
  }

 private:
  double sigma_;
  double mu_;
  double rate_;
};

/// Shares the spec's gap vectors; only the scale factor is per-rate, so
/// instantiation (which happens once per replica per error source) costs
/// one O(n) sum instead of two copies and a sort.
class TraceReplayDist final : public FailureDistribution {
 public:
  TraceReplayDist(std::shared_ptr<const std::vector<double>> gaps,
                  std::shared_ptr<const std::vector<double>> sorted,
                  double rate)
      : gaps_(std::move(gaps)), sorted_(std::move(sorted)), rate_(rate) {
    const double raw_mean =
        std::accumulate(gaps_->begin(), gaps_->end(), 0.0) /
        static_cast<double>(gaps_->size());
    scale_ = (1.0 / rate) / raw_mean;
  }

  [[nodiscard]] FailureDistKind kind() const override {
    return FailureDistKind::kTraceReplay;
  }
  [[nodiscard]] double rate() const override { return rate_; }
  [[nodiscard]] double pdf(double) const override {
    return 0.0;  // empirical distribution: no density
  }
  [[nodiscard]] double cdf(double x) const override {
    // Counts raw gaps with raw * scale_ <= x; the comparison uses the
    // same rounded product sample() and quantile() return, so atom
    // membership is exact.
    const auto upper = std::upper_bound(
        sorted_->begin(), sorted_->end(), x,
        [this](double value, double raw) { return value < raw * scale_; });
    return static_cast<double>(upper - sorted_->begin()) /
           static_cast<double>(sorted_->size());
  }
  [[nodiscard]] double quantile(double u) const override {
    AYD_REQUIRE(u >= 0.0 && u < 1.0, "quantile argument must be in [0,1)");
    const auto n = static_cast<double>(sorted_->size());
    return (*sorted_)[static_cast<std::size_t>(u * n)] * scale_;
  }
  [[nodiscard]] double sample(rng::RngStream& rng) const override {
    return (*gaps_)[rng.next_index(gaps_->size())] * scale_;
  }

 private:
  std::shared_ptr<const std::vector<double>> gaps_;    ///< replay order
  std::shared_ptr<const std::vector<double>> sorted_;  ///< ascending
  double rate_;
  double scale_ = 1.0;  ///< maps raw gaps onto mean 1/rate
};

[[noreturn]] void throw_bad_spec(const std::string& text,
                                 const std::string& why) {
  throw util::InvalidArgument("bad failure distribution \"" + text +
                              "\": " + why);
}

double parse_param(const std::string& text, const std::string& item,
                   const std::vector<std::string>& keys) {
  const auto eq = item.find('=');
  std::string key = eq == std::string::npos ? "" : util::trim(item.substr(0, eq));
  const std::string value =
      util::trim(eq == std::string::npos ? item : item.substr(eq + 1));
  if (!key.empty() &&
      std::find(keys.begin(), keys.end(), key) == keys.end()) {
    throw_bad_spec(text, "unknown parameter \"" + key + "\" (expected " +
                             util::join(keys, " or ") + ")");
  }
  const auto v = util::parse_strict_double(value);
  if (!v.has_value()) {
    throw_bad_spec(text, "cannot parse number \"" + value + "\"");
  }
  return *v;
}

}  // namespace

double FailureDistribution::sample_value(double) const {
  throw util::LogicError(
      "sample_value: distribution does not factor through one uniform "
      "(check unit_samplable() first)");
}

void FailureDistribution::sample_units(rng::RngStream&, double*,
                                       std::size_t) const {
  throw util::LogicError(
      "sample_units: distribution has no unit-variate factorization "
      "(check unit_samplable() first)");
}

double FailureDistribution::from_unit(double) const {
  throw util::LogicError(
      "from_unit: distribution has no unit-variate factorization "
      "(check unit_samplable() first)");
}

void FailureDistribution::sample_units_fast(rng::RngStream& rng, double* z,
                                            std::size_t n) const {
  sample_units(rng, z, n);
}

namespace {

std::string failure_dist_kind_name(FailureDistKind k) {
  switch (k) {
    case FailureDistKind::kExponential: return "exponential";
    case FailureDistKind::kWeibull: return "weibull";
    case FailureDistKind::kLogNormal: return "lognormal";
    case FailureDistKind::kTraceReplay: return "trace";
  }
  return "unknown";
}

}  // namespace

FailureDistSpec FailureDistSpec::exponential() { return {}; }

FailureDistSpec FailureDistSpec::weibull(double shape) {
  // Beyond [0.01, 100] the scale factor 1/(rate·Γ(1 + 1/k)) overflows or
  // degenerates (tgamma overflows for 1/k > ~170, turning every sample
  // into 0 or NaN); field-study fits live in roughly [0.3, 1.5].
  AYD_REQUIRE(std::isfinite(shape) && shape >= 0.01 && shape <= 100.0,
              "Weibull shape must be in [0.01, 100]");
  FailureDistSpec spec;
  spec.kind_ = FailureDistKind::kWeibull;
  spec.shape_ = shape;
  return spec;
}

FailureDistSpec FailureDistSpec::lognormal(double sigma) {
  // sigma above ~10 makes the sampler numerically degenerate (the median
  // exp(mu) underflows relative to the mean by e^{-sigma^2/2}).
  AYD_REQUIRE(std::isfinite(sigma) && sigma > 0.0 && sigma <= 10.0,
              "lognormal sigma must be in (0, 10]");
  FailureDistSpec spec;
  spec.kind_ = FailureDistKind::kLogNormal;
  spec.shape_ = sigma;
  return spec;
}

FailureDistSpec FailureDistSpec::trace_replay(std::vector<double> gaps,
                                              std::string source) {
  AYD_REQUIRE(!gaps.empty(), "trace replay needs at least one gap");
  double sum = 0.0;
  for (const double g : gaps) {
    AYD_REQUIRE(std::isfinite(g) && g >= 0.0,
                "trace gaps must be finite and >= 0");
    sum += g;
  }
  AYD_REQUIRE(sum > 0.0, "trace gaps must have a positive mean");
  FailureDistSpec spec;
  spec.kind_ = FailureDistKind::kTraceReplay;
  auto sorted = gaps;
  std::sort(sorted.begin(), sorted.end());
  spec.gaps_ =
      std::make_shared<const std::vector<double>>(std::move(gaps));
  spec.sorted_gaps_ =
      std::make_shared<const std::vector<double>>(std::move(sorted));
  spec.source_ = std::move(source);
  return spec;
}

const std::vector<double>& FailureDistSpec::trace_gaps() const {
  static const std::vector<double> kEmpty;
  return gaps_ == nullptr ? kEmpty : *gaps_;
}

std::unique_ptr<const FailureDistribution> FailureDistSpec::instantiate(
    double rate) const {
  AYD_REQUIRE(std::isfinite(rate) && rate >= 0.0,
              "arrival rate must be finite and >= 0");
  if (rate == 0.0) return std::make_unique<NeverFails>(kind_);
  switch (kind_) {
    case FailureDistKind::kExponential:
      return std::make_unique<ExponentialDist>(rate);
    case FailureDistKind::kWeibull:
      return std::make_unique<WeibullDist>(shape_, rate);
    case FailureDistKind::kLogNormal:
      return std::make_unique<LogNormalDist>(shape_, rate);
    case FailureDistKind::kTraceReplay:
      return std::make_unique<TraceReplayDist>(gaps_, sorted_gaps_, rate);
  }
  throw util::LogicError("unhandled failure distribution kind");
}

std::string FailureDistSpec::to_string() const {
  switch (kind_) {
    case FailureDistKind::kExponential:
      return "exponential";
    case FailureDistKind::kWeibull:
      return "weibull:k=" + util::format_sig(shape_, 12);
    case FailureDistKind::kLogNormal:
      return "lognormal:sigma=" + util::format_sig(shape_, 12);
    case FailureDistKind::kTraceReplay:
      return "trace:" + source_;
  }
  return "unknown";
}

FailureDistSpec FailureDistSpec::parse(const std::string& text) {
  const std::string s = util::trim(text);
  const auto colon = s.find(':');
  const std::string name =
      util::to_lower(util::trim(s.substr(0, colon)));
  const std::string params =
      colon == std::string::npos ? "" : util::trim(s.substr(colon + 1));

  if (name == "exponential" || name == "exp" || name == "poisson") {
    if (!params.empty()) {
      throw_bad_spec(text, "the exponential takes no parameters (the rate "
                           "comes from the failure model)");
    }
    return exponential();
  }
  if (name == "weibull") {
    if (params.empty()) throw_bad_spec(text, "missing shape, e.g. weibull:k=0.7");
    return weibull(parse_param(text, params, {"k", "shape"}));
  }
  if (name == "lognormal" || name == "lognorm") {
    if (params.empty()) {
      throw_bad_spec(text, "missing sigma, e.g. lognormal:sigma=1.2");
    }
    return lognormal(parse_param(text, params, {"sigma", "s"}));
  }
  if (name == "trace") {
    throw_bad_spec(text,
                   "trace replay cannot be parsed from a string alone; load "
                   "the log with sim::read_failure_log_csv and build the "
                   "spec with FailureDistSpec::trace_replay");
  }
  throw_bad_spec(text,
                 "unknown kind (expected exponential, weibull, lognormal, "
                 "or trace)");
}

void FailureDistSpec::write_json(io::JsonWriter& w) const {
  w.begin_object();
  w.kv("kind", failure_dist_kind_name(kind_));
  switch (kind_) {
    case FailureDistKind::kExponential:
      break;
    case FailureDistKind::kWeibull:
    case FailureDistKind::kLogNormal:
      w.kv("shape", shape_);
      break;
    case FailureDistKind::kTraceReplay:
      w.kv("source", source_);
      w.key("gaps");
      w.begin_array();
      for (const double g : trace_gaps()) w.value(g);
      w.end_array();
      break;
  }
  w.end_object();
}

bool operator==(const FailureDistSpec& a, const FailureDistSpec& b) {
  return a.kind_ == b.kind_ && a.shape_ == b.shape_ &&
         a.trace_gaps() == b.trace_gaps() && a.source_ == b.source_;
}

FittedFailureDist failure_dist_from_fit(const stats::MleFit& fit) {
  FittedFailureDist out;
  out.rate = fit.rate;
  out.log_likelihood = fit.log_likelihood;
  out.count = fit.count;
  if (!fit.valid || !(fit.rate > 0.0)) return out;
  switch (fit.family) {
    case stats::FitFamily::kExponential:
      out.spec = FailureDistSpec::exponential();
      break;
    case stats::FitFamily::kWeibull:
      // The fitters clamp shape to [0.05, 20], well inside the spec's
      // [0.01, 100] domain; instantiate(rate) rebuilds the Weibull scale
      // as 1/(rate * Gamma(1 + 1/k)) == the fitted lambda.
      out.spec = FailureDistSpec::weibull(fit.shape);
      break;
    case stats::FitFamily::kLogNormal:
      // instantiate(rate) rebuilds mu = -ln(rate) - sigma^2/2 == the
      // fitted mu (rate = exp(-(mu + sigma^2/2)) by construction).
      out.spec = FailureDistSpec::lognormal(fit.shape);
      break;
  }
  out.valid = true;
  return out;
}

}  // namespace ayd::model
