// Tests of the experiment engine: grid construction, record semantics,
// sinks, and the determinism of point-parallel evaluation.

#include "ayd/engine/engine.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <gtest/gtest.h>
#include <sstream>
#include <stdexcept>

#include "ayd/io/csv.hpp"
#include "ayd/util/error.hpp"

namespace ayd::engine {
namespace {

// -- Axis ----------------------------------------------------------------

TEST(Axis, LinearSpacingMatchesEndpoints) {
  const Axis a = Axis::spaced("x", 0.0, 10.0, 5, false);
  ASSERT_EQ(a.values.size(), 5u);
  EXPECT_DOUBLE_EQ(a.values.front(), 0.0);
  EXPECT_DOUBLE_EQ(a.values[2], 5.0);
  EXPECT_DOUBLE_EQ(a.values.back(), 10.0);
}

TEST(Axis, LogSpacingIsGeometric) {
  const Axis a = Axis::log_spaced("lambda", 1e-12, 1e-8, 5);
  ASSERT_EQ(a.values.size(), 5u);
  for (std::size_t i = 0; i + 1 < a.values.size(); ++i) {
    EXPECT_NEAR(a.values[i + 1] / a.values[i], 10.0, 1e-9);
  }
}

TEST(Axis, StepIncludesUpperEndpoint) {
  const Axis a = Axis::step("p", 200.0, 1400.0, 200.0);
  ASSERT_EQ(a.values.size(), 7u);
  EXPECT_DOUBLE_EQ(a.values.back(), 1400.0);
}

TEST(Axis, RejectsDegenerateRanges) {
  EXPECT_THROW((void)Axis::spaced("x", 1.0, 0.0, 3, false), util::Error);
  EXPECT_THROW((void)Axis::spaced("x", 0.0, 1.0, 1, false), util::Error);
  EXPECT_THROW((void)Axis::log_spaced("x", 0.0, 1.0, 3), util::Error);
  EXPECT_THROW((void)Axis::list("x", {}), util::Error);
}

// -- GridSpec ------------------------------------------------------------

TEST(GridSpec, CartesianSizeAndOrder) {
  GridSpec grid;
  grid.scenarios({model::Scenario::kS1, model::Scenario::kS3})
      .axis(Axis::list("lambda", {1e-10, 1e-9, 1e-8}));
  EXPECT_EQ(grid.size(), 6u);

  const auto pts = grid.points();
  ASSERT_EQ(pts.size(), 6u);
  // First-declared dimension (scenarios) varies slowest.
  EXPECT_EQ(*pts[0].scenario, model::Scenario::kS1);
  EXPECT_DOUBLE_EQ(pts[0].var("lambda"), 1e-10);
  EXPECT_EQ(*pts[2].scenario, model::Scenario::kS1);
  EXPECT_DOUBLE_EQ(pts[2].var("lambda"), 1e-8);
  EXPECT_EQ(*pts[3].scenario, model::Scenario::kS3);
  EXPECT_DOUBLE_EQ(pts[3].var("lambda"), 1e-10);
  // Indices are the row-major positions.
  for (std::size_t i = 0; i < pts.size(); ++i) EXPECT_EQ(pts[i].index, i);
}

TEST(GridSpec, DeclarationOrderControlsNesting) {
  GridSpec grid;
  grid.axis(Axis::list("p", {1.0, 2.0}))
      .scenarios({model::Scenario::kS1, model::Scenario::kS2});
  const auto pts = grid.points();
  ASSERT_EQ(pts.size(), 4u);
  // Axis declared first -> p varies slowest.
  EXPECT_DOUBLE_EQ(pts[0].var("p"), 1.0);
  EXPECT_DOUBLE_EQ(pts[1].var("p"), 1.0);
  EXPECT_DOUBLE_EQ(pts[2].var("p"), 2.0);
  EXPECT_EQ(*pts[1].scenario, model::Scenario::kS2);
}

TEST(GridSpec, PlatformDimensionCarriesThePreset) {
  GridSpec grid;
  grid.platforms(model::all_platforms());
  const auto pts = grid.points();
  ASSERT_EQ(pts.size(), 4u);
  EXPECT_EQ(pts[0].platform->name, model::all_platforms()[0].name);
}

TEST(GridSpec, RejectsDuplicateDimensions) {
  GridSpec grid;
  grid.axis(Axis::list("x", {1.0}));
  EXPECT_THROW(grid.axis(Axis::list("x", {2.0})), util::Error);
  grid.scenarios({model::Scenario::kS1});
  EXPECT_THROW(grid.scenarios({model::Scenario::kS2}), util::Error);
}

TEST(GridSpec, MissingVarThrows) {
  GridSpec grid;
  grid.axis(Axis::list("x", {1.0}));
  const auto pts = grid.points();
  EXPECT_THROW((void)pts[0].var("y"), util::InvalidArgument);
  EXPECT_FALSE(pts[0].has_var("y"));
  EXPECT_TRUE(pts[0].has_var("x"));
}

// -- Record --------------------------------------------------------------

TEST(Record, PreservesInsertionOrderAndTypes) {
  Record r;
  r.set("a", 1.5);
  r.set("b", "text");
  r.set("c", 2.0);
  ASSERT_EQ(r.fields().size(), 3u);
  EXPECT_EQ(r.fields()[0].first, "a");
  EXPECT_EQ(r.fields()[2].first, "c");
  EXPECT_DOUBLE_EQ(r.num("a"), 1.5);
  EXPECT_EQ(r.text("b"), "text");
  EXPECT_THROW((void)r.num("b"), util::InvalidArgument);
  EXPECT_THROW((void)r.num("missing-key"), util::InvalidArgument);
}

TEST(Record, LastSetWins) {
  Record r;
  r.set("a", 1.0);
  r.set("a", "now text");
  EXPECT_EQ(r.fields().size(), 1u);
  EXPECT_EQ(r.text("a"), "now text");
}

// -- Sinks ---------------------------------------------------------------

Record sample_record() {
  Record r;
  r.set("name", "row");
  r.set("value", 0.123456789);
  return r;
}

TEST(TableSink, FormatsPerColumnSpec) {
  TableSink sink({{"name", "", 4, "", io::Align::kLeft},
                  {"v", "value", 3},
                  {"v%", "value", 2, "%"},
                  {"gap"}});
  sink.write(sample_record());
  sink.close();
  const std::string s = sink.to_string();
  EXPECT_NE(s.find("0.123"), std::string::npos);
  EXPECT_NE(s.find("0.12%"), std::string::npos);
  EXPECT_NE(s.find("-"), std::string::npos);
}

TEST(CsvSink, WritesHeaderAndRowsOnClose) {
  const std::string path = ::testing::TempDir() + "/engine_sink_test.csv";
  std::ostringstream announce;
  {
    CsvSink sink(path, {{"name"}, {"value", "", 6}}, &announce);
    sink.write(sample_record());
    sink.close();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buf;
  buf << in.rdbuf();
  const auto rows = io::parse_csv(buf.str());
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0][0], "name");
  EXPECT_EQ(rows[1][0], "row");
  EXPECT_EQ(rows[1][1], "0.123457");
  EXPECT_NE(announce.str().find(path), std::string::npos);
}

TEST(CsvSink, EmptyPathIsNoop) {
  CsvSink sink("", {{"value"}});
  sink.write(sample_record());
  EXPECT_NO_THROW(sink.close());
}

TEST(JsonlSink, EmitsOneObjectPerRecordWithRawNumbers) {
  const std::string path = ::testing::TempDir() + "/engine_sink_test.jsonl";
  {
    JsonlSink sink(path, {{"name"}, {"value"}, {"gap"}});
    sink.write(sample_record());
    sink.write(sample_record());
    sink.close();
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    EXPECT_NE(line.find("\"name\":\"row\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"value\":0.123456789"), std::string::npos) << line;
    EXPECT_NE(line.find("\"gap\":null"), std::string::npos) << line;
  }
  EXPECT_EQ(lines, 2);
}

TEST(Sink, WriteAfterCloseThrows) {
  TableSink sink({{"value"}});
  sink.close();
  EXPECT_THROW(sink.write(sample_record()), util::Error);
}

// -- run_grid ------------------------------------------------------------

TEST(RunGrid, SerialAndParallelProduceIdenticalRecords) {
  GridSpec grid;
  grid.scenarios(model::all_scenarios())
      .axis(Axis::log_spaced("lambda", 1e-11, 1e-8, 4));

  const EvalFn eval = [](const Point& pt) {
    Record r;
    r.set("index", static_cast<double>(pt.index));
    r.set("scenario", model::scenario_name(*pt.scenario));
    r.set("value", std::log10(pt.var("lambda")) *
                       static_cast<double>(model::scenario_number(
                           *pt.scenario)));
    return r;
  };

  const auto serial = run_grid(grid, nullptr, eval);
  exec::ThreadPool pool(4);
  const auto parallel = run_grid(grid, &pool, eval);

  ASSERT_EQ(serial.size(), grid.size());
  ASSERT_EQ(parallel.size(), serial.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].num("index"), static_cast<double>(i));
    EXPECT_EQ(serial[i].text("scenario"), parallel[i].text("scenario"));
    EXPECT_DOUBLE_EQ(serial[i].num("value"), parallel[i].num("value"));
  }
}

TEST(RunGrid, EvaluationExceptionsPropagate) {
  GridSpec grid;
  grid.axis(Axis::spaced("x", 0.0, 1.0, 8, false));
  exec::ThreadPool pool(2);
  EXPECT_THROW((void)run_grid(grid, &pool,
                              [](const Point& pt) -> Record {
                                if (pt.index == 5) {
                                  throw std::runtime_error("point failed");
                                }
                                return {};
                              }),
               std::runtime_error);
}

// -- group_by / collect / pivot -----------------------------------------

std::vector<Record> grouped_records() {
  std::vector<Record> records;
  for (int s = 0; s < 2; ++s) {
    for (int i = 0; i < 3; ++i) {
      Record r;
      r.set("group", s == 0 ? "a" : "b");
      r.set("x", static_cast<double>(i));
      r.set("y", static_cast<double>(10 * s + i));
      records.push_back(std::move(r));
    }
  }
  return records;
}

TEST(GroupBy, PreservesOrderWithinAndAcrossGroups) {
  const auto records = grouped_records();
  const auto groups = group_by(records, "group");
  ASSERT_EQ(groups.size(), 2u);
  EXPECT_EQ(groups[0].first, "a");
  EXPECT_EQ(groups[1].first, "b");
  ASSERT_EQ(groups[0].second.size(), 3u);
  EXPECT_DOUBLE_EQ(groups[1].second[2]->num("y"), 12.0);

  const auto ys = collect(groups[1].second, "y");
  ASSERT_EQ(ys.size(), 3u);
  EXPECT_DOUBLE_EQ(ys[0], 10.0);
}

TEST(Pivot, BuildsCrossTabWithMissingCells) {
  auto records = grouped_records();
  records.pop_back();  // (b, x=2) missing -> "-" cell
  const io::Table t =
      pivot(records, {"x", "x", 3}, "group", {"", "y", 3});
  EXPECT_EQ(t.columns(), 3u);  // x, a, b
  EXPECT_EQ(t.rows(), 3u);
  const std::string s = t.to_string();
  EXPECT_NE(s.find("11"), std::string::npos);
  // The last row's "b" cell is the placeholder.
  EXPECT_NE(s.find('-'), std::string::npos);
}

TEST(ApplyEvalAxes, OverridesAdaptiveKnobsPerPoint) {
  EvalSpec base;
  base.sim_optimize = true;
  base.sim_search.period.adaptive.ci_rel_tol = 0.02;
  base.sim_search.period.adaptive.max_replicas = 4096;

  Point pt;
  pt.vars = {{"ci_rel_tol", 0.1}, {"max_reps", 64.0}, {"weibull_k", 0.7}};
  const EvalSpec spec = apply_eval_axes(base, pt);
  EXPECT_DOUBLE_EQ(spec.sim_search.period.adaptive.ci_rel_tol, 0.1);
  EXPECT_EQ(spec.sim_search.period.adaptive.max_replicas, 64u);
  // A cap below the starting count pulls the start down with it instead
  // of leaving an invalid min > max combination for the adaptive driver.
  EvalSpec high_start = base;
  high_start.sim_search.period.adaptive.min_replicas = 120;
  Point capped;
  capped.vars = {{"max_reps", 16.0}};
  const EvalSpec clamped = apply_eval_axes(high_start, capped);
  EXPECT_EQ(clamped.sim_search.period.adaptive.max_replicas, 16u);
  EXPECT_EQ(clamped.sim_search.period.adaptive.min_replicas, 16u);
  // The base spec is untouched and axes absent from a point stay at the
  // base values.
  EXPECT_DOUBLE_EQ(base.sim_search.period.adaptive.ci_rel_tol, 0.02);
  Point plain;
  const EvalSpec unchanged = apply_eval_axes(base, plain);
  EXPECT_DOUBLE_EQ(unchanged.sim_search.period.adaptive.ci_rel_tol, 0.02);
  EXPECT_EQ(unchanged.sim_search.period.adaptive.max_replicas, 4096u);
}

}  // namespace
}  // namespace ayd::engine
