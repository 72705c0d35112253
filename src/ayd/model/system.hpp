// System: the complete input to the analysis and the simulator.
//
// Bundles the failure model, the resilience cost models, the downtime, and
// the application speedup profile. This is the single value every function
// in ayd::core and ayd::sim takes.

#pragma once

#include <memory>
#include <string>

#include "ayd/model/correlated.hpp"
#include "ayd/model/cost.hpp"
#include "ayd/model/failure.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/model/speedup.hpp"

namespace ayd::model {

class System {
 public:
  System(FailureModel failure, ResilienceCosts costs, double downtime,
         Speedup speedup);

  /// The paper's standard construction: platform preset + Table III
  /// scenario + Amdahl α (default 0.1) + downtime (default one hour).
  [[nodiscard]] static System from_platform(const Platform& platform,
                                            Scenario scenario,
                                            double alpha = 0.1,
                                            double downtime = 3600.0);

  [[nodiscard]] const FailureModel& failure() const { return failure_; }
  [[nodiscard]] const ResilienceCosts& costs() const { return costs_; }
  [[nodiscard]] double downtime() const { return downtime_; }
  [[nodiscard]] const Speedup& speedup_model() const { return speedup_; }

  // -- Frequently used projections ------------------------------------

  [[nodiscard]] double fail_stop_rate(double p) const {
    return failure_.fail_stop_rate(p);
  }
  [[nodiscard]] double silent_rate(double p) const {
    return failure_.silent_rate(p);
  }
  [[nodiscard]] double checkpoint_cost(double p) const {
    return costs_.checkpoint.cost(p);
  }
  [[nodiscard]] double recovery_cost(double p) const {
    return costs_.recovery.cost(p);
  }
  [[nodiscard]] double verification_cost(double p) const {
    return costs_.verification.cost(p);
  }
  /// C_P + V_P.
  [[nodiscard]] double resilience_cost(double p) const {
    return checkpoint_cost(p) + verification_cost(p);
  }
  [[nodiscard]] double speedup(double p) const {
    return speedup_.speedup(p);
  }
  /// Error-free overhead H(P) = 1/S(P).
  [[nodiscard]] double error_free_overhead(double p) const {
    return speedup_.overhead(p);
  }

  // -- Correlated / multi-level extensions (model/correlated.hpp) ------

  /// True when any extension survived normalization; extended systems
  /// route to the segmented simulators (sim/segmented.hpp) and are
  /// excluded from CRN variate pooling.
  [[nodiscard]] bool extended() const { return ext_ != nullptr; }
  /// The normalized extension bundle (nullptr for plain systems).
  [[nodiscard]] const CorrelatedSpec* extension() const {
    return ext_.get();
  }

  // -- Value-semantic modifiers (copy with one field replaced) ---------
  //
  // All of them preserve any active extensions.

  [[nodiscard]] System with_lambda(double lambda_ind) const;
  [[nodiscard]] System with_downtime(double downtime) const;
  [[nodiscard]] System with_speedup(Speedup speedup) const;
  /// Same rates, different failure inter-arrival distribution shape.
  [[nodiscard]] System with_failure_dist(FailureDistSpec dist) const;

  // -- Normalizing extension modifiers ---------------------------------
  //
  // Each replaces its extension axis after normalizing: a degenerate
  // argument (rho == 0 shock, all-identical component classes) clears the
  // axis instead of storing it, so degenerate extended systems are
  // bitwise the plain system — same simulator path, same canonical key
  // (tests/property_test.cpp pins this).

  /// Replaces the shock axis. spec.correlation == 0 clears it, PFS
  /// penalty included; a PFS penalty whose φ·R equals costs().recovery
  /// coefficient by coefficient folds to 1. costs() stay the burst-buffer
  /// view the analytic planner sees.
  [[nodiscard]] System with_shock(ShockSpec spec) const;
  /// Replaces the heterogeneity axis; the groups are validated and
  /// merged by HeterogeneousSpec::normalized against the current base
  /// failure distribution. A spec equivalent to the homogeneous platform
  /// clears the axis.
  [[nodiscard]] System with_heterogeneity(const HeterogeneousSpec& spec) const;

 private:
  System(FailureModel failure, ResilienceCosts costs, double downtime,
         Speedup speedup, std::shared_ptr<const CorrelatedSpec> ext);

  /// Stores `spec` normalized: no active member leaves ext_ null.
  [[nodiscard]] System with_extension(CorrelatedSpec spec) const;

  FailureModel failure_;
  ResilienceCosts costs_;
  double downtime_;
  Speedup speedup_;
  /// Normalized extension bundle; null for plain systems (the common
  /// case), shared because System travels by value through every grid.
  std::shared_ptr<const CorrelatedSpec> ext_;
};

}  // namespace ayd::model
