// Correlated and multi-level failure worlds (ROADMAP item 5).
//
// The paper's model — and everything in ayd::core — assumes fail-stop
// errors form one i.i.d. renewal stream on a single storage level. Field
// studies disagree on three axes, each captured here as an optional
// extension of the System:
//
//  * ShockSpec — spatially correlated node-group failures as a
//    cascade/shock mixture: a platform-wide shock renewal process (a
//    cooling loop, a PSU cabinet, a top-of-rack switch) takes down a
//    random group of g·P nodes at once, superposed on the per-node
//    renewals. The mixture is parameterised so the *per-node marginal*
//    fail-stop rate is preserved: a correlation weight ρ ∈ [0, 1) moves
//    that fraction of each node's fail-stop intensity into the shared
//    shock process. Individual platform rate (1-ρ)·λf_P; shock rate
//    ρ·f·λ_ind/g (each shock hits a node with probability g, so the
//    per-node marginal ρ·f·λ_ind is exact). Since any failure interrupts
//    the whole coordinated application, correlation *lowers* the
//    interruption rate — failures arrive in bundles — which is exactly
//    the optimum drift bench/fig10_correlated measures.
//  * HeterogeneousSpec — per-component failure laws: the platform is
//    partitioned into groups, each a share of the nodes with its own
//    FailureDistSpec and a rate scale. Shares and the share-weighted
//    scales both sum to 1, so heterogeneity redistributes the fail-stop
//    intensity across laws without changing the platform total. The
//    platform process is the superposition of one renewal stream per
//    *distinct* (dist, scale) class — so a spec whose components all
//    share one law is, by definition and bit-for-bit, the homogeneous
//    platform (see normalized()).
//  * TwoTierCostSpec — two-tier checkpointing (burst buffer + PFS):
//    every checkpoint writes both tiers (C = bb_write + pfs_write);
//    individual failures and silent detections recover from the local
//    burst buffer, while a shock also wipes the victims' burst buffers
//    and forces the slower PFS recovery path. Equal recovery tiers fold
//    into the plain single-tier cost model (see normalized()).
//
// Degeneracy by normalization: System's with_shock / with_heterogeneity /
// with_two_tier modifiers normalize at construction — ρ = 0 drops the
// shock, identical component classes collapse, equal recovery tiers fold
// into ResilienceCosts — so a degenerate extended system IS the plain
// system (same type, same simulator path, same canonical key, bitwise
// identical results; tests/property_test.cpp pins this). Only genuinely
// extended systems route to the segmented simulators
// (sim/segmented.hpp), whose samplers the statistical tier validates
// (tests/model_correlated_test.cpp).

#pragma once

#include <optional>
#include <string>
#include <vector>

#include "ayd/model/cost.hpp"
#include "ayd/model/failure_dist.hpp"
#include "ayd/model/scenario.hpp"

namespace ayd::io {
class JsonWriter;
}

namespace ayd::model {

/// Platform-wide shock renewal superposed on per-node failures.
struct ShockSpec {
  /// ρ ∈ [0, 1): fraction of each node's fail-stop intensity carried by
  /// the shock process (0 = i.i.d. single-level, the paper's world).
  double correlation = 0.0;
  /// g ∈ (0, 1]: expected fraction of the platform one shock takes down.
  /// Smaller groups mean more frequent, narrower shocks at the same ρ.
  double group_fraction = 0.05;
  /// Inter-shock law (exponential by default; Weibull k < 1 models
  /// cascading aftershock bursts).
  FailureDistSpec dist{};

  /// True when the shock process carries any intensity.
  [[nodiscard]] bool active() const { return correlation > 0.0; }
  /// Platform shock arrival rate ρ·f·λ_ind/g for a failure model with
  /// individual rate lambda_ind and fail-stop fraction f. Independent of
  /// P: shocks are platform-level events whose blast radius, not
  /// frequency, scales with the machine.
  [[nodiscard]] double shock_rate(double lambda_ind,
                                  double fail_stop_fraction) const;

  /// "rho=0.3,group=0.05" (",dist=weibull:k=0.7" when non-exponential).
  [[nodiscard]] std::string to_string() const;
  /// Parses the to_string() syntax. Throws util::InvalidArgument.
  [[nodiscard]] static ShockSpec parse(const std::string& text);
  void write_json(io::JsonWriter& w) const;
  friend bool operator==(const ShockSpec& a, const ShockSpec& b);
};

/// One component class of a heterogeneous platform.
struct ComponentGroup {
  /// Fraction of the platform's nodes in this group (> 0; all shares
  /// sum to 1).
  double share = 1.0;
  /// Rate multiplier on λ_ind for this group's nodes (>= 0; the
  /// share-weighted scales sum to 1, preserving the platform rate).
  double rate_scale = 1.0;
  /// This group's inter-failure law.
  FailureDistSpec dist{};

  friend bool operator==(const ComponentGroup& a, const ComponentGroup& b);
};

/// Per-component heterogeneous failure laws (see file header).
struct HeterogeneousSpec {
  std::vector<ComponentGroup> groups;

  /// Validates (shares > 0 summing to 1, share-weighted scales summing
  /// to 1, both within 1e-9) and merges groups with identical
  /// (dist, rate_scale) classes in first-appearance order. Returns
  /// nullopt when the result is the homogeneous platform (a single class
  /// at scale 1 whose law is `base_dist`).
  [[nodiscard]] std::optional<HeterogeneousSpec> normalized(
      const FailureDistSpec& base_dist) const;

  /// "share*scale*dist;share*scale*dist;..." e.g.
  /// "0.9*0.5*exponential;0.1*5.5*weibull:k=0.7".
  [[nodiscard]] std::string to_string() const;
  /// Parses the to_string() syntax. Throws util::InvalidArgument.
  [[nodiscard]] static HeterogeneousSpec parse(const std::string& text);
  void write_json(io::JsonWriter& w) const;
  friend bool operator==(const HeterogeneousSpec& a,
                         const HeterogeneousSpec& b);
};

/// Two-tier checkpoint/recovery cost models (see file header).
struct TwoTierCostSpec {
  CostModel bb_write = CostModel::zero();    ///< burst-buffer write
  CostModel pfs_write = CostModel::zero();   ///< PFS write (every pattern)
  CostModel bb_recovery = CostModel::zero(); ///< individual/silent path
  CostModel pfs_recovery = CostModel::zero();///< shock recovery path

  /// True when the two recovery tiers differ (coefficient-wise); equal
  /// tiers fold into the plain single-tier model.
  [[nodiscard]] bool distinct() const;

  /// Builds the spec from existing single-tier costs: the measured
  /// checkpoint cost becomes the burst-buffer write, the measured
  /// recovery the burst-buffer restore, and the PFS recovery is
  /// `pfs_penalty` (>= 1) times slower. pfs_penalty == 1 folds back into
  /// the plain model bit-for-bit.
  [[nodiscard]] static TwoTierCostSpec from_penalty(
      const ResilienceCosts& base, double pfs_penalty);

  void write_json(io::JsonWriter& w) const;
  friend bool operator==(const TwoTierCostSpec& a, const TwoTierCostSpec& b);
};

/// The bundle of active extensions a System carries (model/system.hpp).
/// Systems hold this normalized: every present member is genuinely
/// active (ShockSpec::active(), non-degenerate groups,
/// TwoTierCostSpec::distinct()).
struct CorrelatedSpec {
  std::optional<ShockSpec> shock;
  std::optional<HeterogeneousSpec> heterogeneity;
  std::optional<TwoTierCostSpec> two_tier;

  [[nodiscard]] bool any_active() const {
    return shock.has_value() || heterogeneity.has_value() ||
           two_tier.has_value();
  }
  void write_json(io::JsonWriter& w) const;
};

}  // namespace ayd::model
