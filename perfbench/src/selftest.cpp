// Self-tests of the benchmark's own machinery: seeded input generation,
// the percentile helper, span self-time arithmetic and the Zipf sampler.
// Exits 0 when every test passes.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using namespace pb;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_inputs_are_a_function_of_the_seed() {
  for (const std::string& name : workload_names()) {
    const std::string a = make_workload(name, 7, 4)->inputs_text();
    const std::string b = make_workload(name, 7, 4)->inputs_text();
    const std::string c = make_workload(name, 8, 4)->inputs_text();
    expect(!a.empty() && a == b,
           name + ": the same seed gives byte-identical inputs");
    expect(a != c, name + ": another seed gives other inputs");
  }
}

void test_percentile() {
  std::vector<double> xs;
  for (int i = 100; i >= 1; --i) xs.push_back(i);
  const Percentile p50 = percentile(xs, 0.5);
  expect(p50.ok && p50.value == 50 && p50.count == 100 && p50.beyond == 50,
         "p50 of 1..100 is 50 with 50 samples beyond");
  const Percentile p90 = percentile(xs, 0.9);
  expect(p90.ok && p90.value == 90 && p90.beyond == 10,
         "p90 of 1..100 is 90 with exactly 10 samples beyond");
  const Percentile p95 = percentile(xs, 0.95);
  expect(!p95.ok && p95.beyond == 5 && p95.count == 100,
         "p95 of 100 samples is refused (5 beyond)");
  xs.resize(19);
  expect(!percentile(xs, 0.5).ok, "p50 of 19 samples is refused (9 beyond)");
  xs.resize(20);
  expect(percentile(xs, 0.5).ok, "p50 of 20 samples has 10 beyond");
  expect(!percentile({}, 0.5).ok, "an empty sample is refused");
}

void test_samples_stay_bounded() {
  Samples s;
  const std::size_t n = 3 * Samples::kCapacity;
  for (std::size_t i = 0; i < n; ++i) s.add(static_cast<double>(i));
  const double mid = median(s.values());
  expect(s.values().size() == Samples::kCapacity && s.seen() == n &&
             std::abs(mid - n / 2.0) < 0.01 * n,
         "samples keep a bounded uniform reservoir (median " +
             std::to_string(mid) + " of 0.." + std::to_string(n) + ")");
}

void test_self_time() {
  // root [0,100]: A [10,40] (with grandchild G [15,20]), B [30,60]
  // overlapping A, C [90,120] running past the root's end.
  const std::vector<Span> spans{
      {1, 0, 0, "root", 0, 100}, {2, 1, 0, "A", 10, 40},
      {3, 2, 0, "G", 15, 20},    {4, 1, 0, "B", 30, 60},
      {5, 1, 0, "C", 90, 120},   {6, 0, 0, "other", 5, 6}};
  const std::vector<double> self = self_times_ns(spans);
  expect(self[0] == 40, "root self = 100 - |[10,60] u [90,100]| = 40");
  expect(self[1] == 25, "A self = 30 - 5 (its child)");
  expect(self[2] == 5 && self[3] == 30 && self[4] == 30 && self[5] == 1,
         "leaves keep their whole duration");
  const SpanIndex idx = SpanIndex::build(spans);
  expect(idx.count("A") == 1 && idx.median_ns("root") == 100 &&
             idx.total_ns("C") == 30,
         "span index groups durations by name");
}

void test_zipf() {
  const std::size_t n = 16;
  const Zipf zipf(n, 1.0);
  double h = 0.0;
  for (std::size_t r = 0; r < n; ++r) h += 1.0 / static_cast<double>(r + 1);
  bool weights_ok = true;
  for (std::size_t r = 0; r < n; ++r) {
    weights_ok &= std::abs(zipf.probability(r) -
                           1.0 / (static_cast<double>(r + 1) * h)) < 1e-12;
  }
  expect(weights_ok, "Zipf probabilities are 1/(r+1) normalised");

  ayd::rng::RngStream rng(42, 0);
  const std::size_t draws = 400000;
  std::vector<double> counts(n);
  for (std::size_t i = 0; i < draws; ++i) counts[zipf.draw(rng)] += 1.0;
  double chi2 = 0.0;
  bool within = true;
  for (std::size_t r = 0; r < n; ++r) {
    const double expected = zipf.probability(r) * draws;
    chi2 += (counts[r] - expected) * (counts[r] - expected) / expected;
    within &= std::abs(counts[r] - expected) < 5.0 * std::sqrt(expected);
  }
  // 15 degrees of freedom: P(chi2 > 37.7) = 0.001.
  expect(within && chi2 < 37.7, "Zipf draws match their weights (chi2 = " +
                                    std::to_string(chi2) + ")");
}

}  // namespace

int main() {
  test_inputs_are_a_function_of_the_seed();
  test_percentile();
  test_samples_stay_bounded();
  test_self_time();
  test_zipf();
  std::printf("%s (%d failed)\n", g_failures == 0 ? "PASS" : "FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}
