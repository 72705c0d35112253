#include "ayd/engine/grid.hpp"

#include <cmath>

#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"

namespace ayd::engine {

Axis Axis::log_spaced(std::string name, double from, double to, int points) {
  return spaced(std::move(name), from, to, points, /*log_spacing=*/true);
}

Axis Axis::spaced(std::string name, double from, double to, int points,
                  bool log_spacing) {
  AYD_REQUIRE(points >= 2, "a sweep needs at least two points");
  AYD_REQUIRE(to > from, "sweep range must satisfy to > from");
  if (log_spacing) {
    AYD_REQUIRE(from > 0.0, "log-spaced sweeps need from > 0");
  }
  Axis axis{std::move(name), {}};
  axis.values.resize(static_cast<std::size_t>(points));
  for (int i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / (points - 1);
    axis.values[static_cast<std::size_t>(i)] =
        log_spacing ? from * std::pow(to / from, t)
                    : from + (to - from) * t;
  }
  return axis;
}

Axis Axis::step(std::string name, double from, double to, double step) {
  AYD_REQUIRE(step > 0.0, "step axes need step > 0");
  AYD_REQUIRE(to >= from, "step axes need to >= from");
  Axis axis{std::move(name), {}};
  for (double x = from; x <= to + 1e-9; x += step) {
    axis.values.push_back(x);
  }
  return axis;
}

Axis Axis::list(std::string name, std::vector<double> values) {
  AYD_REQUIRE(!values.empty(), "an axis needs at least one value");
  return {std::move(name), std::move(values)};
}

bool Point::has_var(std::string_view name) const {
  for (const auto& [k, v] : vars) {
    if (k == name) return true;
  }
  return false;
}

double Point::var(std::string_view name) const {
  for (const auto& [k, v] : vars) {
    if (k == name) return v;
  }
  throw util::InvalidArgument("grid point has no axis named '" +
                              std::string(name) + "'");
}

GridSpec& GridSpec::platforms(std::vector<model::Platform> ps) {
  AYD_REQUIRE(platforms_.empty(), "platforms dimension declared twice");
  AYD_REQUIRE(!ps.empty(), "platforms dimension needs at least one entry");
  platforms_ = std::move(ps);
  dims_.push_back({Kind::kPlatform, 0});
  return *this;
}

GridSpec& GridSpec::scenarios(std::vector<model::Scenario> ss) {
  AYD_REQUIRE(scenarios_.empty(), "scenarios dimension declared twice");
  AYD_REQUIRE(!ss.empty(), "scenarios dimension needs at least one entry");
  scenarios_ = std::move(ss);
  dims_.push_back({Kind::kScenario, 0});
  return *this;
}

GridSpec& GridSpec::axis(Axis a) {
  for (const Axis& existing : axes_) {
    AYD_REQUIRE(existing.name != a.name, "axis declared twice: " + a.name);
  }
  axes_.push_back(std::move(a));
  dims_.push_back({Kind::kAxis, axes_.size() - 1});
  return *this;
}

std::size_t GridSpec::dim_size(const Dim& d) const {
  switch (d.kind) {
    case Kind::kPlatform: return platforms_.size();
    case Kind::kScenario: return scenarios_.size();
    case Kind::kAxis: return axes_[d.payload].values.size();
  }
  return 0;
}

std::size_t GridSpec::size() const {
  std::size_t n = 1;
  for (const Dim& d : dims_) n *= dim_size(d);
  return dims_.empty() ? 0 : n;
}

std::vector<Point> GridSpec::points() const {
  AYD_REQUIRE(!dims_.empty(), "a grid needs at least one dimension");
  const std::size_t total = size();
  std::vector<Point> out;
  out.reserve(total);

  // Mixed-radix enumeration, first-declared dimension outermost.
  std::vector<std::size_t> idx(dims_.size(), 0);
  for (std::size_t flat = 0; flat < total; ++flat) {
    Point pt;
    pt.index = flat;
    for (std::size_t d = 0; d < dims_.size(); ++d) {
      const Dim& dim = dims_[d];
      switch (dim.kind) {
        case Kind::kPlatform: pt.platform = platforms_[idx[d]]; break;
        case Kind::kScenario: pt.scenario = scenarios_[idx[d]]; break;
        case Kind::kAxis:
          pt.vars.emplace_back(axes_[dim.payload].name,
                               axes_[dim.payload].values[idx[d]]);
          break;
      }
    }
    out.push_back(std::move(pt));

    // Advance the counter (last-declared dimension fastest).
    for (std::size_t d = dims_.size(); d-- > 0;) {
      if (++idx[d] < dim_size(dims_[d])) break;
      idx[d] = 0;
    }
  }
  return out;
}

}  // namespace ayd::engine
