// Shared option handling of the `ayd` tool: every subcommand describes the
// system under study with the same flag vocabulary, either a platform
// preset + Table III scenario (the paper's construction) or fully custom
// rates and cost coefficients, with piecewise overrides allowed on top of
// a preset.

#include "ayd/tool/commands.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <stdexcept>

#include "ayd/model/platform.hpp"
#include "ayd/model/scenario.hpp"
#include "ayd/sim/trace.hpp"
#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::tool {

namespace {

bool set(const cli::ArgParser& p, const std::string& name) {
  return !p.option(name).empty();
}

double parse_rate_entry(const std::string& key, const std::string& value) {
  const auto parsed = util::parse_strict_double(value);
  if (!parsed.has_value()) {
    throw util::CliError("--failure-dist: cannot parse " + key + "=" +
                         value);
  }
  const double v = *parsed;
  if (key == "mtbf") {
    if (v <= 0.0) throw util::CliError("--failure-dist: mtbf must be > 0");
    return 1.0 / v;
  }
  if (v < 0.0) throw util::CliError("--failure-dist: lambda must be >= 0");
  return v;
}

/// True if `item` is a "mtbf=NUMBER" / "lambda=NUMBER" rate-override
/// entry (used to split them off a trace path's tail).
bool is_rate_entry(const std::string& item) {
  const auto eq = item.find('=');
  if (eq == std::string::npos) return false;
  const std::string key = util::to_lower(util::trim(item.substr(0, eq)));
  return (key == "mtbf" || key == "lambda") &&
         util::parse_strict_double(util::trim(item.substr(eq + 1)))
             .has_value();
}

}  // namespace

ParsedFailureDist parse_failure_dist(const std::string& text) {
  ParsedFailureDist out;
  const std::string s = util::trim(text);
  const auto colon = s.find(':');
  const auto comma = s.find(',');
  // The kind is everything before the first ':' or ',' delimiter.
  const std::string name =
      util::to_lower(util::trim(s.substr(0, std::min(colon, comma))));

  if (name == "trace") {
    if (colon == std::string::npos || util::trim(s.substr(colon + 1)).empty()) {
      throw util::CliError("--failure-dist trace: needs a CSV path, e.g. "
                           "trace:failures.csv");
    }
    // The tail is the log path, except for trailing rate-override
    // entries ("trace:log.csv,mtbf=3e9"). Paths may contain '=' or ','
    // themselves, so only well-formed trailing entries are split off.
    std::string path = util::trim(s.substr(colon + 1));
    for (auto last = path.rfind(','); last != std::string::npos;
         last = path.rfind(',')) {
      const std::string entry = util::trim(path.substr(last + 1));
      if (!is_rate_entry(entry)) break;
      const auto eq = entry.find('=');
      // Entries are visited right to left; the rightmost wins, matching
      // the left-to-right overwrite order of the non-trace kinds.
      if (!out.lambda_override.has_value()) {
        out.lambda_override = parse_rate_entry(
            util::to_lower(util::trim(entry.substr(0, eq))),
            util::trim(entry.substr(eq + 1)));
      }
      path = util::trim(path.substr(0, last));
    }
    if (path.empty()) {
      throw util::CliError("--failure-dist trace: needs a CSV path, e.g. "
                           "trace:failures.csv");
    }
    out.spec = model::FailureDistSpec::trace_replay(
        sim::read_failure_log_csv(path), path);
    return out;
  }

  // Pull "mtbf=..." / "lambda=..." entries out of the comma list; what
  // remains is the distribution spec proper. The entries work with or
  // without distribution parameters ("exponential,mtbf=3.15e9" and
  // "weibull:k=0.7,mtbf=3.15e9" are both valid).
  std::string tail;
  if (colon != std::string::npos) {
    tail = s.substr(colon + 1);
  } else if (comma != std::string::npos) {
    tail = s.substr(comma + 1);
  }
  std::vector<std::string> kept;
  for (const std::string& raw : util::split(tail, ',')) {
    const std::string item = util::trim(raw);
    if (item.empty()) continue;
    const auto eq = item.find('=');
    const std::string key =
        eq == std::string::npos
            ? ""
            : util::to_lower(util::trim(item.substr(0, eq)));
    if (key == "mtbf" || key == "lambda") {
      out.lambda_override =
          parse_rate_entry(key, util::trim(item.substr(eq + 1)));
    } else {
      kept.push_back(item);
    }
  }
  std::string spec_text = name;
  if (!kept.empty()) {
    spec_text += ':';
    spec_text += util::join(kept, ",");
  }
  out.spec = model::FailureDistSpec::parse(spec_text);
  return out;
}

void add_system_options(cli::ArgParser& parser) {
  parser.add_option("platform", "hera",
                    "platform preset (hera, atlas, coastal, coastal-ssd) "
                    "or 'custom'");
  parser.add_option("scenario", "3",
                    "Table III resilience scenario (1-6); ignored when all "
                    "costs are given explicitly");
  parser.add_option("alpha", "0.1",
                    "sequential fraction of the application (Amdahl / "
                    "Gustafson profiles)");
  parser.add_option("profile", "amdahl",
                    "speedup profile: amdahl, gustafson, perfect, power");
  parser.add_option("gamma", "0.8", "exponent of the power-law profile");
  parser.add_option("downtime", "3600",
                    "downtime D after a fail-stop error (seconds)");
  parser.add_option("lambda", "",
                    "override lambda_ind, the per-processor error rate "
                    "(1/s; required with --platform=custom)");
  parser.add_option("failure-dist", "exponential",
                    "failure inter-arrival distribution: exponential, "
                    "weibull:k=K, lognormal:sigma=S, or trace:FILE.csv; "
                    "an extra ,mtbf=SECONDS (or ,lambda=RATE) entry "
                    "sets the per-processor error rate (mutually "
                    "exclusive with --lambda)");
  parser.add_option("fail-stop-fraction", "",
                    "override f, the fail-stop fraction of errors "
                    "(required with --platform=custom)");
  parser.add_option("ckpt-const", "",
                    "checkpoint cost: constant coefficient a of "
                    "C_P = a + b/P + cP (seconds)");
  parser.add_option("ckpt-inv", "",
                    "checkpoint cost: 1/P coefficient b (seconds)");
  parser.add_option("ckpt-lin", "",
                    "checkpoint cost: linear coefficient c (seconds)");
  parser.add_option("verif-const", "",
                    "verification cost: constant coefficient v of "
                    "V_P = v + u/P (seconds)");
  parser.add_option("verif-inv", "",
                    "verification cost: 1/P coefficient u (seconds)");
  parser.add_option("shock", "",
                    "correlated node-group failures: rho=RHO[,group=G]"
                    "[,dist=SPEC] mixes a platform-wide shock stream "
                    "(fraction rho of the fail-stop rate, hitting a "
                    "fraction G of the nodes per event) into the "
                    "individual renewals (simulation only)");
  parser.add_option("hetero", "",
                    "heterogeneous components: SHARE*SCALE*DIST[;...] "
                    "splits the platform into classes with relative "
                    "failure-rate scales (shares sum to 1, share-weighted "
                    "scales sum to 1; simulation only)");
  parser.add_option("pfs-penalty", "",
                    "two-tier checkpoint cost: recovery from the parallel "
                    "file system costs PHI x the burst-buffer recovery; "
                    "shock-triggered rollbacks pay the PFS path "
                    "(simulation only, requires --shock)");
}

double procs_from_args(const cli::ArgParser& parser,
                       const std::string& name) {
  const double procs = parser.option_double(name);
  // --max-procs is the upper edge of the search interval [1, max-procs],
  // which must not be empty.
  const bool upper_edge = name == "max-procs";
  if (!std::isfinite(procs) || procs < 1.0 || (upper_edge && procs == 1.0)) {
    throw util::CliError("--" + name + " must be a finite processor count " +
                         (upper_edge ? "> 1" : ">= 1") +
                         ", got: " + parser.option(name));
  }
  return procs;
}

model::System system_from_args(const cli::ArgParser& parser) {
  const std::string platform_name =
      util::to_lower(util::trim(parser.option("platform")));
  const bool custom = platform_name == "custom";
  const bool ckpt_given = set(parser, "ckpt-const") ||
                          set(parser, "ckpt-inv") || set(parser, "ckpt-lin");
  const bool verif_given =
      set(parser, "verif-const") || set(parser, "verif-inv");

  double lambda = 0.0;
  double fail_stop_fraction = 0.0;
  model::ResilienceCosts costs;

  const ParsedFailureDist dist =
      parse_failure_dist(parser.option("failure-dist"));
  // Two explicit sources for the same rate is a contradiction, not a
  // precedence question — silently picking one would hand the user
  // results computed at a rate they did not ask for.
  if (dist.lambda_override.has_value() && set(parser, "lambda")) {
    throw util::CliError(
        "--lambda conflicts with the mtbf=/lambda= entry in "
        "--failure-dist; pass the rate through only one of them");
  }

  if (custom) {
    if ((!set(parser, "lambda") && !dist.lambda_override.has_value()) ||
        !set(parser, "fail-stop-fraction")) {
      throw util::CliError(
          "--platform=custom requires --lambda (or an mtbf=/lambda= entry "
          "in --failure-dist) and --fail-stop-fraction");
    }
    if (!ckpt_given) {
      throw util::CliError(
          "--platform=custom requires at least one of --ckpt-const, "
          "--ckpt-inv, --ckpt-lin");
    }
  } else {
    const model::Platform platform = model::platform_by_name(platform_name);
    const model::Scenario scenario =
        model::scenario_from_string(parser.option("scenario"));
    lambda = platform.lambda_ind;
    fail_stop_fraction = platform.fail_stop_fraction;
    costs = model::resolve(platform, scenario);
  }

  if (set(parser, "lambda")) lambda = parser.option_double("lambda");
  if (set(parser, "fail-stop-fraction")) {
    fail_stop_fraction = parser.option_double("fail-stop-fraction");
  }
  const auto coeff = [&parser](const std::string& name) {
    return set(parser, name) ? parser.option_double(name) : 0.0;
  };
  if (ckpt_given) {
    const model::CostModel checkpoint(coeff("ckpt-const"), coeff("ckpt-inv"),
                                      coeff("ckpt-lin"));
    costs.checkpoint = checkpoint;
    costs.recovery = checkpoint;  // R_P = C_P (same I/O), as in the paper
  }
  if (verif_given) {
    costs.verification =
        model::CostModel(coeff("verif-const"), coeff("verif-inv"), 0.0);
  }

  const std::string profile = util::to_lower(parser.option("profile"));
  const double alpha = parser.option_double("alpha");
  model::Speedup speedup = model::Speedup::amdahl(alpha);
  if (profile == "amdahl") {
    speedup = model::Speedup::amdahl(alpha);
  } else if (profile == "gustafson") {
    speedup = model::Speedup::gustafson(alpha);
  } else if (profile == "perfect") {
    speedup = model::Speedup::perfect();
  } else if (profile == "power") {
    speedup = model::Speedup::power_law(parser.option_double("gamma"));
  } else {
    throw util::CliError("unknown profile: " + profile +
                         " (expected amdahl, gustafson, perfect, power)");
  }

  if (dist.lambda_override.has_value()) lambda = *dist.lambda_override;

  model::System sys{model::FailureModel(lambda, fail_stop_fraction, dist.spec),
                    costs, parser.option_double("downtime"), speedup};

  // Correlated-world extensions ride on top of the finished base system;
  // --pfs-penalty last so it refines the final cost model.
  if (set(parser, "shock")) {
    sys = sys.with_shock(model::ShockSpec::parse(parser.option("shock")));
  }
  if (set(parser, "hetero")) {
    sys = sys.with_heterogeneity(
        model::HeterogeneousSpec::parse(parser.option("hetero")));
  }
  if (set(parser, "pfs-penalty")) {
    sys = sys.with_two_tier(model::TwoTierCostSpec::from_penalty(
        sys.costs(), parser.option_double("pfs-penalty")));
  }
  return sys;
}

void print_system(const model::System& sys, std::ostream& out) {
  const model::FailureModel& failure = sys.failure();
  const std::string mtbf =
      failure.lambda_ind() > 0.0
          ? util::format_duration(1.0 / failure.lambda_ind())
          : "error-free";
  out << "system: lambda_ind = " << util::format_sig(failure.lambda_ind(), 4)
      << "/s (node MTBF " << mtbf << "), f = "
      << util::format_sig(failure.fail_stop_fraction(), 4)
      << ", s = " << util::format_sig(failure.silent_fraction(), 4)
      << ", D = " << util::format_duration(sys.downtime()) << "\n"
      << "costs:  C_P = R_P = " << sys.costs().checkpoint.describe()
      << ",  V_P = " << sys.costs().verification.describe() << "\n"
      << "profile: " << sys.speedup_model().name() << "\n";
  if (!failure.dist().memoryless()) {
    out << "failures: " << failure.dist().to_string()
        << " inter-arrivals (simulation only; analytic formulas assume "
           "exponential)\n";
  }
  if (const model::CorrelatedSpec* ext = sys.extension()) {
    if (ext->shock.has_value()) {
      out << "shock:  " << ext->shock->to_string()
          << " (simulation only; analytic formulas see the i.i.d. "
             "marginal)\n";
    }
    if (ext->heterogeneity.has_value()) {
      out << "hetero: " << ext->heterogeneity->to_string()
          << " (simulation only)\n";
    }
    if (ext->two_tier.has_value()) {
      out << "tiers:  BB recovery "
          << ext->two_tier->bb_recovery.describe() << ", PFS recovery "
          << ext->two_tier->pfs_recovery.describe()
          << " (shock rollbacks pay the PFS path)\n";
    }
  }
}

void add_simulation_options(cli::ArgParser& parser) {
  parser.add_option("runs", "120", "independent simulation replicas");
  parser.add_option("patterns", "160", "patterns per replica");
  parser.add_option("seed", "172826646", "RNG seed");
  parser.add_flag("des",
                  "use the event-queue reference simulator instead of the "
                  "fast sampler");
}

sim::ReplicationOptions replication_from_args(const cli::ArgParser& parser) {
  sim::ReplicationOptions opt;
  opt.replicas = static_cast<std::size_t>(parser.option_uint("runs"));
  opt.patterns_per_replica =
      static_cast<std::size_t>(parser.option_uint("patterns"));
  opt.seed = parser.option_uint("seed");
  opt.backend = parser.flag("des") ? sim::Backend::kDes : sim::Backend::kFast;
  return opt;
}

void refuse_unless_simulating(const cli::ArgParser& parser, bool simulating,
                              std::initializer_list<const char*> options) {
  if (simulating) return;
  for (const char* name : options) {
    if (parser.given(name)) {
      throw util::CliError(std::string("--") + name + " requires --simulate");
    }
  }
}

bool parse_or_help(cli::ArgParser& parser,
                   const std::vector<std::string>& args, std::ostream& out) {
  parser.parse_args(args);
  if (parser.help_requested()) {
    out << parser.help();
    return true;
  }
  return false;
}

}  // namespace ayd::tool
