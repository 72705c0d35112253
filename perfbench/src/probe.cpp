// The layer probe of the traced run: single-thread calls of the variate
// tier and of every simulator family at the sweep workload's failure-rich
// Weibull system, timed from outside through their public functions.

#include "probe.hpp"

#include "ayd/core/multi_verification.hpp"
#include "ayd/core/optimizer.hpp"
#include "ayd/core/two_level.hpp"
#include "ayd/model/platform.hpp"
#include "ayd/sim/correlated.hpp"
#include "ayd/sim/multi_protocol.hpp"
#include "ayd/sim/protocol.hpp"
#include "ayd/sim/two_level_protocol.hpp"
#include "ayd/sim/variate_pool.hpp"

namespace pb {
namespace {

using namespace ayd;

constexpr double kMinSeconds = 0.08;  ///< per measured family
constexpr std::size_t kPatterns = 64;

/// Nanoseconds per unit of bulk sample_units_fast in the active tier.
double ns_per_unit(const model::FailureDistSpec& spec) {
  const auto dist = spec.instantiate(1e-4);
  std::vector<double> buf(4096);
  rng::RngStream rng(0xB10C, 1);
  std::size_t units = 0;
  const auto t0 = Clock::now();
  while (seconds_since(t0) < kMinSeconds) {
    dist->sample_units_fast(rng, buf.data(), buf.size());
    units += buf.size();
  }
  return seconds_since(t0) * 1e9 / static_cast<double>(units);
}

/// Times `replica(i)` (one replica of kPatterns patterns on substream i)
/// until kMinSeconds pass; returns ns per pattern and the attempts seen.
template <typename Replica>
std::pair<double, double> per_pattern(Replica&& replica) {
  std::size_t patterns = 0;
  std::uint64_t attempts = 0;
  const auto t0 = Clock::now();
  for (std::size_t i = 0; seconds_since(t0) < kMinSeconds; ++i) {
    attempts += replica(i).attempts;
    patterns += kPatterns;
  }
  const double ns = seconds_since(t0) * 1e9 / static_cast<double>(patterns);
  return {ns, static_cast<double>(attempts) / static_cast<double>(patterns)};
}

}  // namespace

void probe_layers(Report& report) {
  using model::FailureDistSpec;
  report.add("rng.ns_per_unit.exp", ns_per_unit(FailureDistSpec::exponential()),
             "ns", "bulk sample_units_fast, 4096 per call");
  report.add("rng.ns_per_unit.weibull",
             ns_per_unit(FailureDistSpec::weibull(0.7)), "ns",
             "bulk sample_units_fast, 4096 per call");
  report.add("rng.ns_per_unit.lognormal",
             ns_per_unit(FailureDistSpec::lognormal(1.2)), "ns",
             "bulk sample_units_fast, 4096 per call");

  // The sweep's failure-rich Weibull system at its optimum pattern.
  const FailureDistSpec weibull = FailureDistSpec::weibull(0.7);
  const model::System sys =
      model::System::from_platform(model::hera(), model::Scenario::kS3)
          .with_failure_dist(weibull)
          .with_lambda(1e-7);
  const double procs = 512.0;
  const core::Pattern pattern{core::optimal_period(sys, procs).period, procs};
  const std::uint64_t seed = 0x9A77E2;
  const std::string base = std::to_string(kPatterns) + " patterns per call";

  sim::FastProtocolSimulator fast(sys, pattern);
  const auto f = per_pattern([&](std::size_t i) {
    rng::RngStream rng(seed, i);
    fast.begin_replica();
    return fast.simulate_replica(rng, kPatterns);
  });
  report.add("sim.ns_per_pattern.fast", f.first, "ns", base);
  report.add("sim.attempts_per_pattern", f.second, "count", "fast family");

  sim::DesProtocolSimulator des(sys, pattern);
  report.add("sim.ns_per_pattern.des",
             per_pattern([&](std::size_t i) {
               rng::RngStream rng(seed, i);
               des.begin_replica();
               return des.simulate_replica(rng, kPatterns);
             }).first,
             "ns", base);

  const model::System shocked = sys.with_shock({0.6, 0.05, {}});
  sim::CorrelatedFastSimulator corr(shocked, pattern);
  report.add("sim.ns_per_pattern.correlated",
             per_pattern([&](std::size_t i) {
               rng::RngStream rng(seed, i);
               return corr.simulate_replica(rng, kPatterns);
             }).first,
             "ns", base);

  sim::MultiVerifSimulator multi(sys, {pattern.period, procs, 2});
  report.add("sim.ns_per_pattern.multi",
             per_pattern([&](std::size_t i) {
               rng::RngStream rng(seed, i);
               sim::PatternStats total;
               for (std::size_t p = 0; p < kPatterns; ++p) {
                 total.merge(multi.simulate_pattern(rng));
               }
               return total;
             }).first,
             "ns", base);

  sim::TwoLevelSimulator two(core::TwoLevelSystem::with_memory_level1(sys),
                             {pattern.period, procs, 2});
  report.add("sim.ns_per_pattern.two_level",
             per_pattern([&](std::size_t i) {
               rng::RngStream rng(seed, i);
               sim::PatternStats total;
               for (std::size_t p = 0; p < kPatterns; ++p) {
                 total.merge(two.simulate_pattern(rng));
               }
               return total;
             }).first,
             "ns", base);

  // CRN: the pool is filled by a first pass over the replicas, then the
  // timed pass reads the shared variates only.
  sim::UnitVariatePool pool(weibull, seed);
  sim::FastProtocolSimulator pooled(sys, pattern);
  const auto crn_replica = [&](std::size_t i) {
    sim::UnitVariatePool::Cursor cursor = pool.cursor(i % 256);
    pooled.set_unit_cursor(&cursor);
    rng::RngStream rng(seed, i % 256);
    pooled.begin_replica();
    const sim::PatternStats st = pooled.simulate_replica(rng, kPatterns);
    pooled.set_unit_cursor(nullptr);
    return st;
  };
  for (std::size_t i = 0; i < 256; ++i) (void)crn_replica(i);
  report.add("sim.ns_per_pattern.crn_pooled", per_pattern(crn_replica).first,
             "ns", base + ", warm pool of 256 replicas");
}

}  // namespace pb
