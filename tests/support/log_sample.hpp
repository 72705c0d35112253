// Builds the (gaps, logs) sample the stats::fit_*_mle fitters read from a
// raw gap vector, so tests can fit arbitrary samples without an OnlineFit.

#pragma once

#include <span>
#include <vector>

#include "ayd/stats/online_fit.hpp"

namespace ayd::stats {

/// Owning LogSample; converts to the fitters' view.
struct OwnedLogSample {
  std::vector<double> xs;
  std::vector<double> logs;
  operator LogSample() const { return {xs, logs}; }
};

/// The positive, finite subset of `gaps` (the filter OnlineFit::add
/// applies), in order, with its natural logs.
[[nodiscard]] OwnedLogSample positive_gaps(std::span<const double> gaps);

}  // namespace ayd::stats
