#include "ayd/model/failure.hpp"

#include <cmath>
#include <limits>
#include <utility>

#include "ayd/util/contracts.hpp"

namespace ayd::model {

FailureModel::FailureModel(double lambda_ind, double fail_stop_fraction)
    : FailureModel(lambda_ind, fail_stop_fraction, FailureDistSpec{}) {}

FailureModel::FailureModel(double lambda_ind, double fail_stop_fraction,
                           FailureDistSpec dist)
    : lambda_ind_(lambda_ind),
      f_(fail_stop_fraction),
      dist_(std::move(dist)) {
  AYD_REQUIRE(std::isfinite(lambda_ind_) && lambda_ind_ >= 0.0,
              "individual error rate must be finite and >= 0");
  AYD_REQUIRE(f_ >= 0.0 && f_ <= 1.0,
              "fail-stop fraction must be in [0,1]");
}

double FailureModel::mtbf_ind() const {
  return lambda_ind_ > 0.0 ? 1.0 / lambda_ind_
                           : std::numeric_limits<double>::infinity();
}

double FailureModel::fail_stop_rate(double p) const {
  AYD_REQUIRE(p >= 1.0, "processor count must be >= 1");
  return f_ * lambda_ind_ * p;
}

double FailureModel::silent_rate(double p) const {
  AYD_REQUIRE(p >= 1.0, "processor count must be >= 1");
  return (1.0 - f_) * lambda_ind_ * p;
}

double FailureModel::total_rate(double p) const {
  AYD_REQUIRE(p >= 1.0, "processor count must be >= 1");
  return lambda_ind_ * p;
}

double FailureModel::platform_mtbf(double p) const {
  const double rate = total_rate(p);
  return rate > 0.0 ? 1.0 / rate : std::numeric_limits<double>::infinity();
}

}  // namespace ayd::model
