// Declarative experiment grids.
//
// A GridSpec is the cartesian product of up to three kinds of dimension —
// platform presets, Table III scenarios, and named numeric axes (lambda,
// alpha, procs, downtime, ...) — nested in declaration order (the first
// declared dimension varies slowest). Every figure/table sweep in bench/
// and the `ayd sweep` subcommand declare their grid here instead of
// hand-rolling nested loops; the engine then evaluates the points with
// point-level parallelism (see engine.hpp).

#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"

namespace ayd::engine {

/// One named numeric dimension of a grid.
struct Axis {
  std::string name;
  std::vector<double> values;

  /// `points` values evenly spaced on a log scale (from > 0).
  [[nodiscard]] static Axis log_spaced(std::string name, double from,
                                       double to, int points);
  /// from, from+step, ... up to and including `to` (within 1e-9 slack),
  /// accumulating exactly like the classic `for (x = from; x <= to + 1e-9;
  /// x += step)` sweep loops did.
  [[nodiscard]] static Axis step(std::string name, double from, double to,
                                 double step);
  /// An explicit value list.
  [[nodiscard]] static Axis list(std::string name,
                                 std::vector<double> values);

  /// Log when `log_spacing`, else linear (the `ayd sweep` convention).
  [[nodiscard]] static Axis spaced(std::string name, double from, double to,
                                   int points, bool log_spacing);
};

/// One point of a grid: the dimension values this evaluation sees.
struct Point {
  /// Row-major index in the grid (stable across runs and thread counts).
  std::size_t index = 0;
  std::optional<model::Platform> platform;
  std::optional<model::Scenario> scenario;
  /// Axis values in declaration order.
  std::vector<std::pair<std::string, double>> vars;

  [[nodiscard]] bool has_var(std::string_view name) const;
  /// Value of the named axis; throws util::InvalidArgument when absent.
  [[nodiscard]] double var(std::string_view name) const;
};

/// Cartesian grid over platforms x scenarios x numeric axes. Dimensions
/// nest in declaration order: the first declared varies slowest.
class GridSpec {
 public:
  GridSpec& platforms(std::vector<model::Platform> ps);
  GridSpec& scenarios(std::vector<model::Scenario> ss);
  GridSpec& axis(Axis a);

  [[nodiscard]] std::size_t size() const;
  /// Materialises all points in row-major order.
  [[nodiscard]] std::vector<Point> points() const;

 private:
  enum class Kind { kPlatform, kScenario, kAxis };
  struct Dim {
    Kind kind;
    std::size_t payload;  ///< index into axes_ when kind == kAxis
  };

  [[nodiscard]] std::size_t dim_size(const Dim& d) const;

  std::vector<model::Platform> platforms_;
  std::vector<model::Scenario> scenarios_;
  std::vector<Axis> axes_;
  std::vector<Dim> dims_;
};

}  // namespace ayd::engine
