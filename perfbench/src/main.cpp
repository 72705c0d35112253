// The repository benchmark's main program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--commit TEXT]
//
// Untraced (--trace 0): sets the workload up five times (set-up time is
// the median), runs its closed loop for S seconds with tracing off,
// checks its outputs, and prints the end-to-end metrics.
//
// Traced (--trace 1): runs the named workload untraced and then traced
// (0.3 S each; the difference of their median op latencies is the tracing
// overhead), runs the other workloads traced for a short while so every
// layer is measured, probes the rng and sim layers, and prints the
// per-layer metrics. Spans are written as NDJSON under .bench_build/.
//
// Human-readable lines come first; the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "ayd/io/json.hpp"
#include "ayd/rng/simd.hpp"
#include "bench.hpp"
#include "probe.hpp"

namespace {

using namespace pb;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      a.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      a.seconds = std::stod(value);
    } else if (flag == "--trace") {
      a.trace = value == "1";
    } else if (flag == "--commit") {
      a.commit = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (!(a.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Adds a percentile metric; a refused percentile is a failed check.
void add_percentile(Report& report, Checks& checks, const std::string& name,
                    const Samples& seconds, double q, double scale,
                    const std::string& unit) {
  const Percentile p = percentile(seconds.values(), q);
  checks.expect(p.ok, name + ": too few samples beyond the percentile (" +
                          std::to_string(p.beyond) + " of " +
                          std::to_string(p.count) + ")");
  report.add(name, p.value * scale, unit,
             base_count(p.count) + " kept of " +
                 std::to_string(seconds.seen()) + ", " +
                 std::to_string(p.beyond) + " beyond");
}

void print_run_record(const Args& a, unsigned nproc, const Workload& w) {
  std::ostringstream os;
  ayd::io::JsonWriter j(os);
  j.begin_object();
  j.kv("workload", a.workload);
  j.kv("seed", static_cast<std::uint64_t>(a.seed));
  j.kv("seconds", a.seconds);
  j.kv("trace", a.trace);
  j.kv("nproc", static_cast<std::uint64_t>(nproc));
  j.kv("simd_tier",
       ayd::rng::simd::tier_name(ayd::rng::simd::active_tier()));
  j.kv("compiler", PB_COMPILER);
  j.kv("build_type", PB_BUILD_TYPE);
  j.kv("commit", a.commit);
  j.kv("inputs_digest", hex_digest(w.inputs_text()));
  const OpClasses c = w.classes();
  j.kv("op", c.op);
  j.kv("hot_ops", c.hot);
  j.kv("cold_ops", c.cold);
  j.end_object();
  std::cout << "run_record " << os.str() << "\n";
}

void print_metrics(const Report& report) {
  for (const auto& [name, m] : report.metrics()) {
    std::printf("metric %-36s %18.6f %-6s %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.base.c_str());
  }
}

void print_result(const Report& report, std::size_t attempted,
                  std::size_t failed) {
  std::ostringstream os;
  ayd::io::JsonWriter j(os);
  j.begin_object();
  j.kv("correct", failed == 0);
  j.kv("attempted", static_cast<std::uint64_t>(attempted));
  j.kv("failed", static_cast<std::uint64_t>(failed));
  j.key("metrics");
  j.begin_object();
  for (const auto& [name, m] : report.metrics()) {
    j.key(name);
    j.begin_object();
    j.kv("value", m.value);
    j.kv("unit", m.unit);
    j.end_object();
  }
  j.end_object();
  j.end_object();
  std::cout << os.str() << std::endl;
}

int run_untraced(const Args& a, unsigned nproc) {
  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  for (int i = 0; i < 5; ++i) {
    const auto t0 = Clock::now();
    w.reset();
    w = make_workload(a.workload, a.seed, nproc);
    w->setup();
    setup_s.push_back(seconds_since(t0));
  }
  print_run_record(a, nproc, *w);
  const LoopResult r = w->run(a.seconds);
  Checks checks;
  w->check(checks);

  Report report;
  report.add("setup_s", median(setup_s), "s",
             "median of " + base_count(setup_s.size()) + " set-ups");
  const std::vector<double> windows = r.window_rates();
  report.add("ops_per_s", median(windows), "1/s",
             "median of " + std::to_string(windows.size()) +
                 " windows; overall " +
                 base_ratio(static_cast<double>(r.ops), r.wall_s));
  std::printf("ops_per_s windows:");
  for (const double rate : windows) std::printf(" %.6g", rate);
  std::printf("\n");
  add_percentile(report, checks, "latency_p50_ms", r.latency, 0.5, 1e3, "ms");
  add_percentile(report, checks, "latency_p90_ms", r.latency, 0.9, 1e3, "ms");
  add_percentile(report, checks, "hot_latency_p90_us", r.hot, 0.9, 1e6,
                 "us");
  add_percentile(report, checks, "cold_latency_p50_ms", r.cold, 0.5, 1e3,
                 "ms");
  report.add("peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss");

  const std::size_t attempted = r.ops + checks.attempted;
  const std::size_t failed = r.failed + checks.failed;
  print_metrics(report);
  std::printf("error_rate %.6g (%zu failed of %zu attempted: %zu ops, %zu "
              "checks)\n",
              static_cast<double>(failed) / static_cast<double>(attempted),
              failed, attempted, r.ops, checks.attempted);
  print_result(report, attempted, failed);
  return 0;
}

int run_traced(const Args& a, unsigned nproc) {
  std::unique_ptr<Workload> w = make_workload(a.workload, a.seed, nproc);
  w->setup();
  print_run_record(a, nproc, *w);
  const double phase = 0.3 * a.seconds;
  const LoopResult plain = w->run(phase);
  Tracer::clear();
  Tracer::enable(true);
  const LoopResult traced = w->run(phase);
  Tracer::enable(false);
  Checks checks;
  w->check(checks);

  // Every other workload runs traced for a short while so that each
  // layer's metrics come from the workload that exercises it.
  std::vector<std::unique_ptr<Workload>> others;
  for (const std::string& name : workload_names()) {
    if (name == a.workload) continue;
    others.push_back(make_workload(name, a.seed, nproc));
    others.back()->setup();
    Tracer::enable(true);
    const LoopResult r = others.back()->run(0.06 * a.seconds);
    Tracer::enable(false);
    checks.expect(r.failed == 0, name + " failed ops in its traced run");
  }

  const std::vector<Span> spans = Tracer::collect();
  const SpanIndex index = SpanIndex::build(spans);
  Report report;
  w->layer_metrics(index, report);
  for (auto& o : others) o->layer_metrics(index, report);
  probe_layers(report);

  const double p50_plain = median(plain.latency.values());
  const double p50_traced = median(traced.latency.values());
  report.add("trace.overhead_share", p50_traced / p50_plain - 1.0, "ratio",
             "median op latency traced/untraced - 1, " +
                 base_ratio(p50_traced, p50_plain));
  const std::string path =
      output_dir() + "/trace-" + a.workload + ".ndjson";
  checks.expect(write_ndjson(path, spans), "cannot write " + path);

  const std::size_t attempted = plain.ops + traced.ops + checks.attempted;
  const std::size_t failed = plain.failed + traced.failed + checks.failed;
  print_metrics(report);
  std::printf("%zu spans written to %s; error_rate %.6g (%zu of %zu)\n",
              spans.size(), path.c_str(),
              static_cast<double>(failed) / static_cast<double>(attempted),
              failed, attempted);
  print_result(report, attempted, failed);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args a = parse_args(argc, argv);
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
      std::cerr << "unknown workload " << a.workload << "\n";
      return 2;
    }
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    return a.trace ? run_traced(a, nproc) : run_untraced(a, nproc);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
