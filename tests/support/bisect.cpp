#include "support/bisect.hpp"

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

RootResult bisect(const std::function<double(double)>& f, double lo,
                  double hi, const RootOptions& opt) {
  double flo = f(lo);
  double fhi = f(hi);
  check_bracket(lo, hi, flo, fhi);
  RootResult r;
  if (flo == 0.0) return {lo, 0.0, 0, true};
  if (fhi == 0.0) return {hi, 0.0, 0, true};
  for (int i = 0; i < opt.max_iterations; ++i) {
    const double mid = lo + 0.5 * (hi - lo);
    const double fmid = f(mid);
    r.iterations = i + 1;
    if (fmid == 0.0 || std::abs(fmid) <= opt.f_tol ||
        (hi - lo) * 0.5 <= x_tolerance(opt, mid)) {
      r.x = mid;
      r.fx = fmid;
      r.converged = true;
      return r;
    }
    if ((fmid < 0.0) == (flo < 0.0)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
    }
  }
  r.x = lo + 0.5 * (hi - lo);
  r.fx = f(r.x);
  r.converged = false;
  return r;
}

}  // namespace ayd::math
