// Root finding by bisection: the slow, obviously-correct reference the
// math_roots tests measure Brent's method (math::brent_root) against.

#pragma once

#include <functional>

#include "ayd/math/roots.hpp"

namespace ayd::math {

/// Finds x in [lo, hi] with f(x) = 0 by bisection.
/// Preconditions: lo < hi and f(lo), f(hi) have opposite signs (or one is 0).
/// Throws util::InvalidArgument if the bracket is invalid.
[[nodiscard]] RootResult bisect(const std::function<double(double)>& f,
                                double lo, double hi,
                                const RootOptions& opt = {});

}  // namespace ayd::math
