// The experiment engine: declarative grids, point-level parallelism, and
// pluggable result sinks.
//
//   GridSpec grid;                       // declare the sweep
//   grid.scenarios({...}).axis(Axis::log_spaced("lambda", 1e-12, 1e-8, 5));
//   auto records = run_grid(grid, pool, [&](const Point& pt) {
//     Record r; ... evaluate_point(...) ...; return r;  // raw values
//   });
//   TableSink table(columns); CsvSink csv(path, csv_columns);
//   emit(records, {&table, &csv});
//
// run_grid fans the points out over an exec::ThreadPool and returns the
// records in grid order, so output is bit-identical to a serial run no
// matter how many threads execute it (per-point evaluations are pure; the
// simulator's per-replica RNG substreams are derived from indices, never
// from scheduling).

#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ayd/engine/evaluator.hpp"
#include "ayd/engine/grid.hpp"
#include "ayd/engine/record.hpp"
#include "ayd/engine/sink.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/io/table.hpp"

namespace ayd::engine {

using EvalFn = std::function<Record(const Point&)>;

/// Evaluates every grid point and returns the records in grid (row-major)
/// order. With a pool, points run in parallel; the first evaluation
/// exception is rethrown. A null pool runs serially.
///
/// Passing the same pool both here and as evaluate_point's sim_pool is
/// safe but pointless: a parallel_for nested inside one of the pool's
/// workers runs inline. Pick the level with more work — points for wide
/// grids, serial points + sim_pool for tiny grids (sim_pool runs a
/// simulate point's replicas, a sim-optimize point's candidates, P rungs
/// or large replica rounds).
[[nodiscard]] std::vector<Record> run_grid(const GridSpec& grid,
                                           exec::ThreadPool* pool,
                                           const EvalFn& eval);

/// Runs pre-materialised points (for callers that post-process points()).
[[nodiscard]] std::vector<Record> run_points(const std::vector<Point>& pts,
                                             exec::ThreadPool* pool,
                                             const EvalFn& eval);

/// Streams records through one or more sinks and closes them.
void emit(const std::vector<Record>& records,
          std::initializer_list<ResultSink*> sinks);
void emit(const std::vector<const Record*>& records,
          std::initializer_list<ResultSink*> sinks);

/// Partitions records on the text field `key`, preserving record order
/// within groups and first-appearance order across groups.
[[nodiscard]] std::vector<
    std::pair<std::string, std::vector<const Record*>>>
group_by(const std::vector<Record>& records, std::string_view key);

/// Numeric column extraction (for fits and post-hoc statistics).
[[nodiscard]] std::vector<double> collect(
    const std::vector<const Record*>& records, std::string_view key);
[[nodiscard]] std::vector<double> collect(
    const std::vector<Record>& records, std::string_view key);

/// Cross-tab: one table row per distinct `row` cell, one column per
/// distinct `column_label` text (in first-appearance order), cells from
/// `value`. Reproduces the Figure-3 style "rows = P, columns = scenario"
/// layout from a flat record list.
[[nodiscard]] io::Table pivot(const std::vector<Record>& records,
                              const ColumnSpec& row,
                              std::string_view column_label_key,
                              const ColumnSpec& value);

}  // namespace ayd::engine
