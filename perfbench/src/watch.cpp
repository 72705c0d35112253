// Workload `watch`: a seeded synthetic failure-telemetry stream fed one
// gap at a time through service::Replanner::on_gap — the loop `ayd watch`
// runs — with an nproc pool for the re-optimisations. The stream
// alternates stationary Weibull stretches with regime switches (shape
// flips 0.7 <-> 1.4 and rate steps, in a fixed cycle). Stationary
// stretches measure ingest; switches measure re-plan publish latency.
// Detection counts are taken over the first kPrefixSwitches switches,
// which every run processes, so they repeat exactly for a seed.

#include <cmath>
#include <iterator>
#include <optional>
#include <sstream>
#include <utility>

#include "ayd/cli/args.hpp"
#include "ayd/core/sim_optimizer.hpp"
#include "ayd/exec/thread_pool.hpp"
#include "ayd/model/failure_dist.hpp"
#include "ayd/service/replan.hpp"
#include "ayd/stats/online_fit.hpp"
#include "ayd/tool/commands.hpp"
#include "ayd/tool/tool.hpp"
#include "bench.hpp"

namespace pb {
namespace {

using namespace ayd;

constexpr std::size_t kSegments = 160;
constexpr std::size_t kPrefixSwitches = 8;
constexpr std::size_t kSampleEvery = 64;  ///< traced: keep 1 in n spans
/// Event latencies are reported as the mean over blocks of this many
/// events, four scheduled refits each: single events are too short to
/// time one by one, and refit costs vary with the window's data.
constexpr std::size_t kBlock = 64;

struct Segment {
  std::size_t start = 0;  ///< first event index
  double shape = 0.7;
  double rate = 0.0;
};

/// Detection outcome over the prefix of a run.
struct Detection {
  std::vector<double> delays;  ///< events from a switch to its re-plan
  std::size_t missed = 0;      ///< switches with no re-plan in the stretch
  std::size_t replans = 0;
  std::size_t false_replans = 0;  ///< > 2 windows after the last switch
};

class WatchWorkload final : public Workload {
 public:
  WatchWorkload(std::uint64_t seed, unsigned threads) : threads_(threads) {
    // The regimes cycle in a fixed order, alternating shape flips and rate
    // steps, so every seed streams the same mix (refit cost depends on the
    // regime); the seed sets the stretch lengths and the gaps themselves.
    const double base_rate = 2.78e-4;
    const std::pair<double, double> cycle[] = {
        {0.7, 1.0}, {1.4, 1.0}, {1.4, 2.0}, {0.7, 2.0}, {0.7, 0.5},
        {1.4, 0.5}};
    rng::RngStream rng(seed, /*stream=*/0x3A7C);
    std::size_t at = 0;
    for (std::size_t s = 0; s < kSegments; ++s) {
      const auto [shape, scale] = cycle[s % std::size(cycle)];
      const double rate = base_rate * scale;
      segments_.push_back({at, shape, rate});
      const std::size_t len = 2000 + rng.next_index(1000);
      const auto dist =
          model::FailureDistSpec::weibull(shape).instantiate(rate);
      for (std::size_t i = 0; i < len; ++i) gaps_.push_back(dist->sample(rng));
      at += len;
    }
    argv_ = {"--lambda=2.78e-4", "--failure-dist=weibull:k=0.7",
             "--procs=1",        "--runs=8",
             "--patterns=32",    "--max-reps=64",
             "--ci-rel-tol=0.2", "--seed=" + std::to_string(seed % 1000003)};
  }

  OpClasses classes() const override {
    return {"one telemetry event (Replanner::on_gap); latencies are the "
            "mean per event over blocks of 64 events (four refits each)",
            "block of events without a re-plan (ingest, scheduled refits)",
            "single event that publishes a re-plan"};
  }

  std::string inputs_text() const override {
    std::ostringstream os;
    os.precision(17);
    for (const std::string& a : argv_) os << a << ' ';
    os << '\n';
    for (const Segment& s : segments_) {
      os << s.start << ' ' << s.shape << ' ' << s.rate << '\n';
    }
    for (std::size_t i = 0; i < gaps_.size(); i += 997) os << gaps_[i] << ' ';
    return os.str();
  }

  void setup() override {
    cli::ArgParser parser("perfbench watch", "replan options");
    tool::add_system_options(parser);
    tool::add_replan_options(parser);
    parser.parse_args(argv_);
    base_.emplace(tool::system_from_args(parser));
    options_ = tool::replan_options_from_args(parser, *base_);
    pool_ = std::make_unique<exec::ThreadPool>(threads_);
    start_replanner();
  }

  LoopResult run(double seconds) override {
    const bool traced = Tracer::enabled();
    if (traced) {
      // A fresh loop the shadow estimator can mirror event for event.
      start_replanner();
      shadow_.emplace(options_.fit);
      std::shared_ptr<const model::FailureDistribution> shared =
          base_->failure().dist().instantiate(
              base_->failure().total_rate(options_.procs));
      shadow_->set_baseline([shared](double x) {
        const double p = shared->pdf(x);
        return p > 0.0 ? std::log(p) : stats::kLogDensityFloor;
      });
    }
    LoopResult r(seconds);
    replan_events_.clear();
    const std::size_t prefix_end = segments_[kPrefixSwitches].start;
    const auto t0 = Clock::now();
    std::size_t ev = 0;
    double block_s = 0.0;
    bool block_published = false;
    while (ev < prefix_end || seconds_since(t0) < seconds) {
      const double gap = gaps_[ev % gaps_.size()];
      const double deployed = replanner_->deployed_period();
      bool published = false;
      const auto a = Clock::now();
      {
        Tracer::Scope s("watch.ingest", ev);
        published = replanner_->on_gap(gap).has_value();
        if (published) {
          s.rename("watch.replan");
        } else if (ev % kSampleEvery != 0) {
          s.drop();
        }
      }
      const double dt = seconds_since(a);
      r.completed(seconds_between(t0, a) + dt);
      block_s += dt;
      block_published |= published;
      if (published) {
        r.cold.add(dt);
        replan_events_.push_back(ev + 1);
      }
      if (ev % kBlock == kBlock - 1) {
        r.latency.add(block_s / kBlock);
        if (!block_published) r.hot.add(block_s / kBlock);
        block_s = 0.0;
        block_published = false;
      }
      if (traced && !shadow_event(ev, gap, deployed, published)) ++r.failed;
      ++ev;
    }
    r.wall_s = seconds_since(t0);
    last_detection_ = detect();
    return r;
  }

  void check(Checks& checks) override {
    // The committed replay traces must reproduce the replay tier's pinned
    // behaviour through the `ayd watch` entry.
    const auto watch = [](const std::string& trace,
                          std::vector<std::string> extra) {
      std::vector<std::string> args{"watch",        "--trace",  trace,
                                    "--procs",      "1",        "--runs",
                                    "8",            "--patterns", "32",
                                    "--max-reps",   "64",       "--ci-rel-tol",
                                    "0.2",          "--threads", "1"};
      args.insert(args.end(), extra.begin(), extra.end());
      std::ostringstream out, err;
      const int code = tool::run_tool(args, out, err);
      std::vector<std::size_t> replans;
      std::istringstream lines(out.str());
      std::string line;
      while (std::getline(lines, line)) {
        if (line.find("\"type\":\"replan\"") == std::string::npos) continue;
        const auto at = line.find("\"event\":");
        replans.push_back(std::stoul(line.substr(at + 8)));
      }
      return std::make_pair(code, replans);
    };
    const std::string dir = "tests/data/";
    const auto stationary = watch(dir + "replay_stationary_exp.csv",
                                  {"--lambda", "2.78e-4"});
    checks.expect(stationary.first == 0 && stationary.second.empty(),
                  "stationary replay trace published a re-plan");
    const auto shift =
        watch(dir + "replay_weibull_shift.csv",
              {"--lambda", "2.78e-4", "--failure-dist", "weibull:k=0.7"});
    checks.expect(shift.first == 0 && !shift.second.empty() &&
                      shift.second.front() > 600 &&
                      shift.second.front() <= 600 + 2 * 256,
                  "Weibull shift replay trace: switch not detected in "
                  "(600, 600 + 2 windows]");
    const auto step = watch(dir + "replay_rate_step.csv",
                            {"--lambda", "1.389e-4"});
    checks.expect(step.first == 0 && !step.second.empty(),
                  "rate-step replay trace published no re-plan");
    // Every prefix switch of the synthetic stream is detected.
    checks.expect(last_detection_.missed == 0,
                  "a regime switch of the stream was never re-planned");
  }

  void layer_metrics(const SpanIndex& spans, Report& report) override {
    const auto us = [&](const char* span) {
      return spans.median_ns(span) * 1e-3;
    };
    report.add("online_fit.add_us_p50", us("online_fit.add"), "us",
               base_count(spans.count("online_fit.add")));
    report.add("online_fit.refit_us_p50", us("online_fit.refit"), "us",
               base_count(spans.count("online_fit.refit")));
    report.add("online_fit.fit_us_p50", us("online_fit.fit"), "us",
               base_count(spans.count("online_fit.fit")));
    report.add("replan.search_ms_p50",
               spans.median_ns("replan.search") * 1e-6, "ms",
               base_count(spans.count("replan.search")));
    const double replans = static_cast<double>(searches_);
    report.add("replan.evaluations_per_replan",
               replans > 0 ? search_evaluations_ / replans : 0.0, "count",
               base_ratio(search_evaluations_, replans));
    const Detection& d = last_detection_;
    report.add("replan.replans", static_cast<double>(d.replans), "count",
               "first " + std::to_string(kPrefixSwitches) + " switches");
    report.add("replan.false_replans", static_cast<double>(d.false_replans),
               "count", "first " + std::to_string(kPrefixSwitches) +
                            " switches");
    report.add("replan.detect_delay_events", median(d.delays), "count",
               base_count(d.delays.size()));
  }

  [[nodiscard]] const Detection& detection() const { return last_detection_; }

 private:
  void start_replanner() {
    replanner_.emplace(*base_, options_, pool_.get());
    (void)replanner_->initial_record();
  }

  /// Traced mode: mirrors the event through a shadow OnlineFit (same
  /// options, same baseline discipline) and, on a published re-plan,
  /// rebuilds the warm-started search from public calls. Returns false
  /// when the rebuilt search disagrees with the deployed period.
  bool shadow_event(std::size_t ev, double gap, double deployed,
                    bool published) {
    stats::DriftDecision d;
    {
      Tracer::Scope s("online_fit.add", ev);
      d = shadow_->add(gap);
      if (d.refit_ran) {
        s.rename("online_fit.refit");
      } else if (ev % kSampleEvery != 0) {
        s.drop();
      }
    }
    if (ev % 1024 == 0) {
      Tracer::Scope s("online_fit.fit", ev);
      (void)shadow_->fit();
    }
    const model::FittedFailureDist fitted =
        d.drift ? model::failure_dist_from_fit(d.fit)
                : model::FittedFailureDist{};
    if (!published) return !fitted.valid;
    if (!fitted.valid) return false;
    const model::System next =
        base_->with_failure_dist(fitted.spec)
            .with_lambda(fitted.rate / options_.procs);
    core::SimSearchOptions search = options_.search;
    search.warm_start = deployed;
    core::SimPeriodOptimum opt;
    {
      Tracer::Scope s("replan.search", ev);
      opt = core::sim_optimal_period(next, options_.procs, search,
                                     pool_.get());
    }
    ++searches_;
    search_evaluations_ += opt.evaluations;
    shadow_->rebase();
    return opt.period == replanner_->deployed_period();
  }

  Detection detect() const {
    Detection d;
    const std::size_t window = options_.fit.window;
    std::size_t next = 0;
    for (std::size_t k = 1; k <= kPrefixSwitches; ++k) {
      const std::size_t lo = segments_[k].start;
      const std::size_t hi = segments_[k + 1].start;
      while (next < replan_events_.size() && replan_events_[next] <= lo) {
        ++next;
      }
      if (next < replan_events_.size() && replan_events_[next] <= hi) {
        d.delays.push_back(static_cast<double>(replan_events_[next] - lo));
      } else {
        ++d.missed;
      }
    }
    const std::size_t end = segments_[kPrefixSwitches + 1].start;
    for (const std::size_t e : replan_events_) {
      if (e > end) break;
      ++d.replans;
      std::size_t last_switch = 0;
      for (std::size_t k = 1; k <= kPrefixSwitches + 1; ++k) {
        if (segments_[k].start < e) last_switch = segments_[k].start;
      }
      if (last_switch == 0 || e > last_switch + 2 * window) ++d.false_replans;
    }
    return d;
  }

  unsigned threads_;
  std::vector<Segment> segments_;
  std::vector<double> gaps_;
  std::vector<std::string> argv_;
  std::optional<model::System> base_;
  service::ReplanOptions options_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::optional<service::Replanner> replanner_;
  std::optional<stats::OnlineFit> shadow_;
  std::vector<std::size_t> replan_events_;
  Detection last_detection_;
  std::size_t searches_ = 0;
  double search_evaluations_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_watch(std::uint64_t seed, unsigned threads) {
  return std::make_unique<WatchWorkload>(seed, threads);
}

}  // namespace pb
