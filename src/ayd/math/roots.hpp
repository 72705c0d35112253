// One-dimensional root finding by Brent's method. Used by the Student-t
// quantile inversion (stats/ci).

#pragma once

#include <functional>

namespace ayd::math {

/// Result of a root search.
struct RootResult {
  double x = 0.0;         ///< abscissa of the root
  double fx = 0.0;        ///< residual f(x)
  int iterations = 0;     ///< iterations consumed
  bool converged = false; ///< true if tolerance was met
};

/// Options shared by the root finders.
struct RootOptions {
  double x_tol = 1e-12;    ///< absolute tolerance on x (plus 4*eps*|x| internally)
  double f_tol = 0.0;      ///< stop early if |f(x)| <= f_tol
  int max_iterations = 200;
};

/// Brent's method (inverse quadratic interpolation + secant + bisection).
/// Preconditions: lo < hi and f(lo), f(hi) have opposite signs (or one is
/// 0); throws util::InvalidArgument if the bracket is invalid. Superlinear
/// in practice.
[[nodiscard]] RootResult brent_root(const std::function<double(double)>& f,
                                    double lo, double hi,
                                    const RootOptions& opt = {});

}  // namespace ayd::math
