#include "support/log_sample.hpp"

#include <cmath>

namespace ayd::stats {

OwnedLogSample positive_gaps(std::span<const double> gaps) {
  OwnedLogSample out;
  out.xs.reserve(gaps.size());
  out.logs.reserve(gaps.size());
  for (double g : gaps) {
    if (std::isfinite(g) && g > 0.0) {
      out.xs.push_back(g);
      out.logs.push_back(std::log(g));
    }
  }
  return out;
}

}  // namespace ayd::stats
