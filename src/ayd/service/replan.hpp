// The online re-planning control loop (ROADMAP item 4): failure telemetry
// in, re-published checkpoint schedules out.
//
// A Replanner owns the three pieces the loop composes:
//   * a stats::OnlineFit rolling estimator with GLR drift detection,
//   * the model bridge (model::failure_dist_from_fit) that turns a fit
//     into a deployable System, and
//   * core::sim_optimal_period, warm-started from the currently deployed
//     period, re-run whenever drift clears the CI noise floor.
//
// Every decision is serialized as one NDJSON record (written with
// io::JsonWriter, whose number formatting is shortest-round-trip): a
// "plan" record when the loop starts, a "replan" record per accepted
// drift, and a "summary" record on demand. The whole loop is a pure
// function of (base system, options, gap sequence): the estimator is
// deterministic, the optimizer is bit-reproducible at any thread count,
// and the serialization is byte-stable — which is what the replay test
// tier (tests/replan_replay_test.cpp) pins.
//
// Both front-ends sit on this class: `ayd watch` streams a failure-log
// CSV through it, and the service's "subscribe" op replays inline
// telemetry through it (docs/service.md).

#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "ayd/core/sim_optimizer.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/model/system.hpp"
#include "ayd/stats/online_fit.hpp"

namespace ayd::service {

/// Knobs of the re-planning loop.
struct ReplanOptions {
  /// Rolling-window estimator + drift guard.
  stats::OnlineFitOptions fit{};
  /// Period search; `warm_start` is overwritten by the loop (the
  /// deployed period), everything else is honored.
  core::SimSearchOptions search{};
  /// Deployed processor allocation (required; the telemetry is read as
  /// the total platform error process at this allocation, so the fitted
  /// total rate divides by `procs` to become FailureModel's lambda_ind).
  double procs = 0.0;
};

/// Streaming telemetry -> schedule loop. Single-threaded by design: feed
/// gaps from one thread; `pool` only runs the candidate periods (or the
/// large replica rounds) of each re-optimization concurrently
/// (bit-identical results at any size).
class Replanner {
 public:
  /// `base` is the deployed scenario: its failure shape/rate are the
  /// initial model (the GLR null) and its cost model stays fixed.
  /// Throws util::InvalidArgument when options are inconsistent.
  Replanner(model::System base, ReplanOptions options,
            exec::ThreadPool* pool = nullptr);

  /// Runs the cold plan: optimizes the base system, deploys the optimum,
  /// installs the baseline density. Returns the "plan" record. Must be
  /// called once, before on_gap().
  [[nodiscard]] std::string initial_record();

  /// Feeds one inter-arrival gap (seconds). Returns a "replan" record
  /// when this event's refit cleared the drift guard and the schedule was
  /// re-published; std::nullopt otherwise.
  [[nodiscard]] std::optional<std::string> on_gap(double gap);

  /// A "summary" record of the session so far (events seen/accepted,
  /// re-plans, deployed period).
  [[nodiscard]] std::string summary_record() const;

  /// Currently deployed checkpoint period (seconds).
  [[nodiscard]] double deployed_period() const { return deployed_period_; }
  /// Gaps fed (including ignored non-positive/non-finite ones).
  [[nodiscard]] std::size_t events() const { return events_; }
  /// Re-plans published so far.
  [[nodiscard]] std::size_t replans() const { return replans_; }
  /// The system currently deployed (base costs, latest fitted failure
  /// law after any re-plan).
  [[nodiscard]] const model::System& deployed_system() const {
    return deployed_;
  }

 private:
  [[nodiscard]] core::SimPeriodOptimum optimize(const model::System& sys,
                                                double warm_start);

  model::System base_;
  model::System deployed_;
  ReplanOptions options_;
  exec::ThreadPool* pool_;
  stats::OnlineFit fit_;
  double deployed_period_ = 0.0;
  std::size_t events_ = 0;
  std::size_t replans_ = 0;
  bool planned_ = false;
};

}  // namespace ayd::service
