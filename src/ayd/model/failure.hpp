// Failure model: fail-stop and silent errors as independent arrival
// processes.
//
// Each individual processor has error rate λ_ind (MTBF μ_ind = 1/λ_ind)
// counting both error types; a fraction f of errors are fail-stop and
// s = 1 - f are silent. On P processors the platform rates are
// λ^f_P = f·λ_ind·P and λ^s_P = s·λ_ind·P (He rault & Robert, Prop. 1.2).
//
// The *shape* of the inter-arrival law around those rates is a pluggable
// FailureDistSpec (exponential by default, which is the Poisson process
// the paper analyses; Weibull / lognormal / trace replay open the
// robustness scenarios the paper could not run). The rate projections
// below are shape-independent: every distribution is instantiated with
// mean inter-arrival 1/rate.

#pragma once

#include <utility>

#include "ayd/model/failure_dist.hpp"

namespace ayd::model {

class FailureModel {
 public:
  /// λ_ind >= 0 (per second), f in [0, 1]; exponential inter-arrivals.
  FailureModel(double lambda_ind, double fail_stop_fraction);

  /// Same rates with an explicit inter-arrival distribution shape.
  FailureModel(double lambda_ind, double fail_stop_fraction,
               FailureDistSpec dist);

  /// A platform that never fails (useful baseline in tests/examples).
  [[nodiscard]] static FailureModel error_free() { return {0.0, 0.0}; }

  [[nodiscard]] double lambda_ind() const { return lambda_ind_; }
  /// Individual-processor MTBF μ_ind = 1/λ_ind (+inf when error-free).
  [[nodiscard]] double mtbf_ind() const;

  [[nodiscard]] double fail_stop_fraction() const { return f_; }
  [[nodiscard]] double silent_fraction() const { return 1.0 - f_; }

  /// Fail-stop error rate λ^f_P = f·λ_ind·P on P processors.
  [[nodiscard]] double fail_stop_rate(double p) const;
  /// Silent error rate λ^s_P = s·λ_ind·P on P processors.
  [[nodiscard]] double silent_rate(double p) const;
  /// Combined platform error rate λ_ind·P.
  [[nodiscard]] double total_rate(double p) const;
  /// Platform MTBF μ_ind / P (+inf when error-free).
  [[nodiscard]] double platform_mtbf(double p) const;

  /// The λ-weighting (f/2 + s)·λ_ind that appears in all the paper's
  /// first-order optima (Theorems 1–3).
  [[nodiscard]] double weighted_lambda() const {
    return (f_ / 2.0 + (1.0 - f_)) * lambda_ind_;
  }

  /// Copy with a different λ_ind (used by the λ-sweep experiments).
  /// Preserves the inter-arrival distribution shape.
  [[nodiscard]] FailureModel with_lambda(double lambda_ind) const {
    return {lambda_ind, f_, dist_};
  }

  /// The inter-arrival distribution shape (exponential by default).
  [[nodiscard]] const FailureDistSpec& dist() const { return dist_; }

  /// Copy with a different inter-arrival shape (same rates).
  [[nodiscard]] FailureModel with_dist(FailureDistSpec dist) const {
    return {lambda_ind_, f_, std::move(dist)};
  }

 private:
  double lambda_ind_;
  double f_;
  FailureDistSpec dist_;
};

}  // namespace ayd::model
