#include "support/integrate.hpp"

#include <cmath>

#include "ayd/util/contracts.hpp"

namespace ayd::math {

namespace {

struct Ctx {
  const std::function<double(double)>& f;
  const IntegrateOptions& opt;
  int evaluations = 0;
  bool converged = true;
};

double simpson(double fa, double fm, double fb, double h) {
  return h / 6.0 * (fa + 4.0 * fm + fb);
}

double adapt(Ctx& ctx, double a, double b, double fa, double fm, double fb,
             double whole, double tol, int depth, double& err) {
  const double m = 0.5 * (a + b);
  const double lm = 0.5 * (a + m);
  const double rm = 0.5 * (m + b);
  const double flm = ctx.f(lm);
  const double frm = ctx.f(rm);
  ctx.evaluations += 2;
  const double left = simpson(fa, flm, fm, m - a);
  const double right = simpson(fm, frm, fb, b - m);
  const double delta = left + right - whole;
  if (depth >= ctx.opt.max_depth) {
    ctx.converged = false;
    err += std::abs(delta);
    return left + right + delta / 15.0;
  }
  if (depth >= ctx.opt.min_depth && std::abs(delta) <= 15.0 * tol) {
    err += std::abs(delta) / 15.0;
    return left + right + delta / 15.0;  // Richardson extrapolation
  }
  return adapt(ctx, a, m, fa, flm, fm, left, 0.5 * tol, depth + 1, err) +
         adapt(ctx, m, b, fm, frm, fb, right, 0.5 * tol, depth + 1, err);
}

}  // namespace

IntegrateResult integrate(const std::function<double(double)>& f, double a,
                          double b, const IntegrateOptions& opt) {
  AYD_REQUIRE(a <= b, "integration bounds out of order");
  IntegrateResult res;
  if (a == b) {
    res.converged = true;
    return res;
  }
  Ctx ctx{f, opt};
  const double m = 0.5 * (a + b);
  const double fa = f(a);
  const double fm = f(m);
  const double fb = f(b);
  ctx.evaluations = 3;
  const double whole = simpson(fa, fm, fb, b - a);
  const double tol =
      std::max(opt.abs_tol, opt.rel_tol * std::abs(whole));
  double err = 0.0;
  res.value = adapt(ctx, a, b, fa, fm, fb, whole, tol, 0, err);
  res.error_estimate = err;
  res.evaluations = ctx.evaluations;
  res.converged = ctx.converged;
  return res;
}

}  // namespace ayd::math
