#include "ayd/math/roots.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "ayd/util/contracts.hpp"

namespace ayd::math {

namespace {

void check_bracket(double lo, double hi, double flo, double fhi) {
  AYD_REQUIRE(lo < hi, "root bracket requires lo < hi");
  AYD_REQUIRE(std::isfinite(flo) && std::isfinite(fhi),
              "f must be finite at the bracket ends");
  AYD_REQUIRE(flo == 0.0 || fhi == 0.0 || (flo < 0.0) != (fhi < 0.0),
              "f(lo) and f(hi) must have opposite signs");
}

double x_tolerance(const RootOptions& opt, double x) {
  return opt.x_tol + 4.0 * std::numeric_limits<double>::epsilon() *
                         std::abs(x);
}

}  // namespace

RootResult brent_root(const std::function<double(double)>& f, double lo,
                      double hi, const RootOptions& opt) {
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  check_bracket(a, b, fa, fb);
  if (fa == 0.0) return {a, 0.0, 0, true};
  if (fb == 0.0) return {b, 0.0, 0, true};

  // Classic Brent (Numerical Recipes structure): b is the best iterate,
  // a the previous one, c the counterpoint keeping the bracket.
  double c = a, fc = fa;
  double d = b - a, e = d;
  RootResult r;
  for (int i = 0; i < opt.max_iterations; ++i) {
    r.iterations = i + 1;
    if ((fb > 0.0) == (fc > 0.0)) {
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
    if (std::abs(fc) < std::abs(fb)) {
      a = b; b = c; c = a;
      fa = fb; fb = fc; fc = fa;
    }
    const double tol = x_tolerance(opt, b);
    const double xm = 0.5 * (c - b);
    if (std::abs(xm) <= tol || fb == 0.0 || std::abs(fb) <= opt.f_tol) {
      r.x = b;
      r.fx = fb;
      r.converged = true;
      return r;
    }
    if (std::abs(e) >= tol && std::abs(fa) > std::abs(fb)) {
      // Attempt inverse quadratic / secant interpolation.
      const double s = fb / fa;
      double p, q;
      if (a == c) {
        p = 2.0 * xm * s;
        q = 1.0 - s;
      } else {
        const double qq = fa / fc;
        const double rr = fb / fc;
        p = s * (2.0 * xm * qq * (qq - rr) - (b - a) * (rr - 1.0));
        q = (qq - 1.0) * (rr - 1.0) * (s - 1.0);
      }
      if (p > 0.0) q = -q;
      p = std::abs(p);
      const double min1 = 3.0 * xm * q - std::abs(tol * q);
      const double min2 = std::abs(e * q);
      if (2.0 * p < std::min(min1, min2)) {
        e = d;
        d = p / q;
      } else {
        d = xm;
        e = d;
      }
    } else {
      d = xm;
      e = d;
    }
    a = b;
    fa = fb;
    if (std::abs(d) > tol) {
      b += d;
    } else {
      b += (xm > 0.0 ? tol : -tol);
    }
    fb = f(b);
  }
  r.x = b;
  r.fx = fb;
  r.converged = false;
  return r;
}

}  // namespace ayd::math
