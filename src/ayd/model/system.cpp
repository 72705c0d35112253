#include "ayd/model/system.hpp"

#include <cmath>
#include <utility>

#include "ayd/util/contracts.hpp"

namespace ayd::model {

System::System(FailureModel failure, ResilienceCosts costs, double downtime,
               Speedup speedup)
    : System(failure, std::move(costs), downtime, std::move(speedup),
             nullptr) {}

System::System(FailureModel failure, ResilienceCosts costs, double downtime,
               Speedup speedup, std::shared_ptr<const CorrelatedSpec> ext)
    : failure_(failure),
      costs_(std::move(costs)),
      downtime_(downtime),
      speedup_(std::move(speedup)),
      ext_(std::move(ext)) {
  AYD_REQUIRE(std::isfinite(downtime_) && downtime_ >= 0.0,
              "downtime must be finite and >= 0");
}

System System::from_platform(const Platform& platform, Scenario scenario,
                             double alpha, double downtime) {
  return System(platform.failure(), resolve(platform, scenario), downtime,
                Speedup::amdahl(alpha));
}

System System::with_lambda(double lambda_ind) const {
  return System(failure_.with_lambda(lambda_ind), costs_, downtime_,
                speedup_, ext_);
}

System System::with_downtime(double downtime) const {
  return System(failure_, costs_, downtime, speedup_, ext_);
}

System System::with_speedup(Speedup speedup) const {
  return System(failure_, costs_, downtime_, std::move(speedup), ext_);
}

System System::with_failure_dist(FailureDistSpec dist) const {
  return System(failure_.with_dist(std::move(dist)), costs_, downtime_,
                speedup_, ext_);
}

System System::with_extension(CorrelatedSpec spec) const {
  return System(failure_, costs_, downtime_, speedup_,
                spec.any_active()
                    ? std::make_shared<const CorrelatedSpec>(std::move(spec))
                    : nullptr);
}

System System::with_shock(ShockSpec spec) const {
  AYD_REQUIRE(std::isfinite(spec.correlation) && spec.correlation >= 0.0 &&
                  spec.correlation < 1.0,
              "shock correlation rho must be in [0, 1)");
  AYD_REQUIRE(std::isfinite(spec.group_fraction) &&
                  spec.group_fraction > 0.0 && spec.group_fraction <= 1.0,
              "shock group fraction must be in (0, 1]");
  AYD_REQUIRE(std::isfinite(spec.pfs_penalty) && spec.pfs_penalty >= 1.0,
              "PFS recovery penalty must be finite and >= 1");
  CorrelatedSpec ext = ext_ != nullptr ? *ext_ : CorrelatedSpec{};
  if (spec.active()) {
    // A PFS path that costs exactly the burst-buffer path is the
    // single-tier world.
    const CostModel pfs = spec.pfs_recovery(costs_.recovery);
    if (pfs.constant_coeff() == costs_.recovery.constant_coeff() &&
        pfs.inverse_coeff() == costs_.recovery.inverse_coeff() &&
        pfs.linear_coeff() == costs_.recovery.linear_coeff()) {
      spec.pfs_penalty = 1.0;
    }
    ext.shock = spec;
  } else {
    // rho == 0 is the i.i.d. single-level world: normalize it away so
    // the plain (bit-pinned) simulator path runs.
    ext.shock.reset();
  }
  return with_extension(std::move(ext));
}

System System::with_heterogeneity(const HeterogeneousSpec& spec) const {
  CorrelatedSpec ext = ext_ != nullptr ? *ext_ : CorrelatedSpec{};
  ext.heterogeneity = spec.normalized(failure_.dist());
  return with_extension(std::move(ext));
}

}  // namespace ayd::model
