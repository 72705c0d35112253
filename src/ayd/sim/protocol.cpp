#include "ayd/sim/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"

namespace ayd::sim {

void detail::throw_diverged(double period, double procs, int segments,
                            double fail_rate, double silent_rate) {
  std::ostringstream os;
  os << "pattern did not complete within " << kMaxPatternAttempts
     << " tries (T=" << period << ", P=" << procs << ", n=" << segments
     << ", lambda_f=" << fail_rate << ", lambda_s=" << silent_rate
     << "); the per-try success probability is too small";
  throw util::SimulationDiverged(os.str());
}

std::uint64_t safe_word_threshold(const model::FailureDistribution& dist,
                                  double window) {
  // The margin must dominate the *inconsistency* between cdf() and the
  // quantile inversion behind sample_value(), not just rounding noise.
  // Exponential and Weibull use algebraically matched expm1/log1p/pow
  // forms (disagreement ~1e-15 relative in u). The lognormal is the
  // hard case: its cdf uses accurate erfc while its quantile uses
  // Acklam's approximation (|rel err| ~1.15e-9 in z-space), which maps
  // to a u-space disagreement of up to ~1.15e-9 * z^2 relative to the
  // cdf value; words never reach below u = 2^-53, so |z| <= 8.2 and the
  // worst case is ~8e-8. The 1e-4 relative margin clears that by three
  // orders of magnitude, and its only cost is that a 1e-4 sliver of
  // below-threshold draws computes the exact arrival unnecessarily
  // (tests/sim_bitcompat_test.cpp scans the boundary for violations).
  const double c = dist.cdf(window);
  const double thr = std::min(1.0, c + (c * 1e-4 + 1e-300));
  return static_cast<std::uint64_t>(std::ceil(thr * 0x1.0p53));
}

}  // namespace ayd::sim
