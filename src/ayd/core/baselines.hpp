// Baseline strategies the paper compares against (Section I and the
// related-work discussion):
//
//  * fail_stop_only_system — Zheng et al. (IEEE TC 2015)-style modelling
//    that accounts only for fail-stop errors. Used by the silent-blindness
//    ablation: plan T with this model, execute under both error sources.
//  * jin_relaxation — the iterative-relaxation numerical procedure of
//    Jin et al. (ICPP'10), alternating the optimal T for fixed P with the
//    optimal P for fixed T until fixpoint. The paper cites this as the
//    generic numerical method its closed forms replace; the ablation bench
//    compares it against our nested optimiser.

#pragma once

#include "ayd/core/optimizer.hpp"
#include "ayd/model/system.hpp"

namespace ayd::core {

/// A copy of `sys` whose silent errors are removed while the fail-stop
/// rate is preserved: λ'_ind = f·λ_ind with f' = 1. Verification costs are
/// kept (the VC protocol still runs them), so the planner is "blind" only
/// in its error model, not in its protocol costs.
[[nodiscard]] model::System fail_stop_only_system(const model::System& sys);

/// The checkpointing period a silent-error-blind planner would choose for
/// the given allocation: Theorem 1 applied with λs forced to 0, i.e.
/// T = sqrt((V+C)/(λf/2)) — Young/Daly with the verified-checkpoint cost.
[[nodiscard]] double silent_blind_period(const model::System& sys,
                                         double procs);

struct JinRelaxationResult {
  double procs = 0.0;
  double period = 0.0;
  double overhead = 0.0;
  int rounds = 0;       ///< relaxation rounds executed
  bool converged = false;
};

/// Alternating relaxation from P = 64 over P in [1, 1e7]:
/// T ← argmin_T H(T, P); P ← argmin_P H(T, P); repeat until neither moves
/// by more than 1e-8 (relative), for at most 100 rounds.
[[nodiscard]] JinRelaxationResult jin_relaxation(const model::System& sys);

}  // namespace ayd::core
