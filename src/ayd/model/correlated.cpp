#include "ayd/model/correlated.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "ayd/io/json.hpp"
#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::model {

namespace {

/// Validation tolerance for the heterogeneity sum constraints. Inputs are
/// modeling choices typed by humans ("0.9;0.1"), so exact floating-point
/// sums cannot be demanded; 1e-9 relative is far below any simulated
/// effect while still catching genuinely unnormalized specs.
constexpr double kSumTolerance = 1e-9;

[[noreturn]] void throw_bad(const std::string& what, const std::string& text,
                            const std::string& why) {
  throw util::InvalidArgument("bad " + what + " \"" + text + "\": " + why);
}

double parse_double_field(const std::string& what, const std::string& text,
                          const std::string& value) {
  const auto v = util::parse_strict_double(util::trim(value));
  if (!v.has_value()) {
    throw_bad(what, text, "cannot parse number \"" + value + "\"");
  }
  return *v;
}

}  // namespace

// --- ShockSpec -----------------------------------------------------------

double ShockSpec::shock_rate(double lambda_ind,
                             double fail_stop_fraction) const {
  if (!active()) return 0.0;
  return correlation * fail_stop_fraction * lambda_ind / group_fraction;
}

CostModel ShockSpec::pfs_recovery(const CostModel& recovery) const {
  return CostModel(recovery.constant_coeff() * pfs_penalty,
                   recovery.inverse_coeff() * pfs_penalty,
                   recovery.linear_coeff() * pfs_penalty);
}

std::string ShockSpec::to_string() const {
  std::string out = "rho=" + util::format_sig(correlation, 12) +
                    ",group=" + util::format_sig(group_fraction, 12);
  if (dist.kind() != FailureDistKind::kExponential) {
    out += ",dist=" + dist.to_string();
  }
  return out;
}

ShockSpec ShockSpec::parse(const std::string& text) {
  ShockSpec spec;
  spec.correlation = -1.0;  // sentinel: rho is mandatory
  for (const std::string& raw : util::split(util::trim(text), ',')) {
    const std::string item = util::trim(raw);
    if (item.empty()) continue;
    const auto eq = item.find('=');
    if (eq == std::string::npos) {
      throw_bad("shock spec", text, "expected key=value, got \"" + item + "\"");
    }
    const std::string key = util::to_lower(util::trim(item.substr(0, eq)));
    const std::string value = util::trim(item.substr(eq + 1));
    if (key == "rho" || key == "correlation") {
      spec.correlation = parse_double_field("shock spec", text, value);
    } else if (key == "group" || key == "g") {
      spec.group_fraction = parse_double_field("shock spec", text, value);
    } else if (key == "dist") {
      spec.dist = FailureDistSpec::parse(value);
    } else {
      throw_bad("shock spec", text,
                "unknown parameter \"" + key +
                    "\" (expected rho, group, or dist)");
    }
  }
  if (spec.correlation < 0.0) {
    throw_bad("shock spec", text, "missing rho, e.g. rho=0.3,group=0.05");
  }
  AYD_REQUIRE(std::isfinite(spec.correlation) && spec.correlation >= 0.0 &&
                  spec.correlation < 1.0,
              "shock correlation rho must be in [0, 1)");
  AYD_REQUIRE(std::isfinite(spec.group_fraction) &&
                  spec.group_fraction > 0.0 && spec.group_fraction <= 1.0,
              "shock group fraction must be in (0, 1]");
  return spec;
}

void ShockSpec::write_json(io::JsonWriter& w) const {
  w.begin_object();
  w.kv("correlation", correlation);
  w.kv("group_fraction", group_fraction);
  w.key("dist");
  dist.write_json(w);
  if (pfs_penalty != 1.0) w.kv("pfs_penalty", pfs_penalty);
  w.end_object();
}

bool operator==(const ShockSpec& a, const ShockSpec& b) {
  return a.correlation == b.correlation &&
         a.group_fraction == b.group_fraction && a.dist == b.dist &&
         a.pfs_penalty == b.pfs_penalty;
}

// --- HeterogeneousSpec ---------------------------------------------------

bool operator==(const ComponentGroup& a, const ComponentGroup& b) {
  return a.share == b.share && a.rate_scale == b.rate_scale &&
         a.dist == b.dist;
}

std::optional<HeterogeneousSpec> HeterogeneousSpec::normalized(
    const FailureDistSpec& base_dist) const {
  AYD_REQUIRE(!groups.empty(), "heterogeneous spec needs at least one group");
  double share_sum = 0.0;
  double rate_sum = 0.0;
  for (const ComponentGroup& g : groups) {
    AYD_REQUIRE(std::isfinite(g.share) && g.share > 0.0,
                "component shares must be finite and > 0");
    AYD_REQUIRE(std::isfinite(g.rate_scale) && g.rate_scale >= 0.0,
                "component rate scales must be finite and >= 0");
    share_sum += g.share;
    rate_sum += g.share * g.rate_scale;
  }
  AYD_REQUIRE(std::abs(share_sum - 1.0) <= kSumTolerance,
              "component shares must sum to 1");
  AYD_REQUIRE(std::abs(rate_sum - 1.0) <= kSumTolerance,
              "share-weighted rate scales must sum to 1 (heterogeneity "
              "redistributes the platform rate, it does not change it)");

  // The platform process is one renewal stream per distinct (dist, scale)
  // class, so merging equal classes (first-appearance order, shares
  // summed) is exact by definition — not an approximation.
  HeterogeneousSpec merged;
  for (const ComponentGroup& g : groups) {
    auto it = std::find_if(merged.groups.begin(), merged.groups.end(),
                           [&](const ComponentGroup& m) {
                             return m.rate_scale == g.rate_scale &&
                                    m.dist == g.dist;
                           });
    if (it != merged.groups.end()) {
      it->share += g.share;
    } else {
      merged.groups.push_back(g);
    }
  }

  // A single class at scale 1 whose law is the base law IS the
  // homogeneous platform: drop the spec so the plain (bit-pinned)
  // simulator path runs and canonical keys identify the two.
  if (merged.groups.size() == 1 && merged.groups.front().rate_scale == 1.0 &&
      merged.groups.front().dist == base_dist) {
    return std::nullopt;
  }
  return merged;
}

std::string HeterogeneousSpec::to_string() const {
  std::vector<std::string> parts;
  parts.reserve(groups.size());
  for (const ComponentGroup& g : groups) {
    parts.push_back(util::format_sig(g.share, 12) + "*" +
                    util::format_sig(g.rate_scale, 12) + "*" +
                    g.dist.to_string());
  }
  return util::join(parts, ";");
}

HeterogeneousSpec HeterogeneousSpec::parse(const std::string& text) {
  HeterogeneousSpec spec;
  for (const std::string& raw : util::split(util::trim(text), ';')) {
    const std::string item = util::trim(raw);
    if (item.empty()) continue;
    const std::vector<std::string> fields = util::split(item, '*');
    if (fields.size() != 3) {
      throw_bad("heterogeneity spec", text,
                "expected share*scale*dist, got \"" + item + "\"");
    }
    ComponentGroup g;
    g.share = parse_double_field("heterogeneity spec", text, fields[0]);
    g.rate_scale = parse_double_field("heterogeneity spec", text, fields[1]);
    g.dist = FailureDistSpec::parse(fields[2]);
    spec.groups.push_back(std::move(g));
  }
  if (spec.groups.empty()) {
    throw_bad("heterogeneity spec", text,
              "expected at least one share*scale*dist group");
  }
  return spec;
}

void HeterogeneousSpec::write_json(io::JsonWriter& w) const {
  w.begin_array();
  for (const ComponentGroup& g : groups) {
    w.begin_object();
    w.kv("share", g.share);
    w.kv("rate_scale", g.rate_scale);
    w.key("dist");
    g.dist.write_json(w);
    w.end_object();
  }
  w.end_array();
}

bool operator==(const HeterogeneousSpec& a, const HeterogeneousSpec& b) {
  return a.groups == b.groups;
}

// --- CorrelatedSpec ------------------------------------------------------

void CorrelatedSpec::write_json(io::JsonWriter& w) const {
  w.begin_object();
  if (shock.has_value()) {
    w.key("shock");
    shock->write_json(w);
  }
  if (heterogeneity.has_value()) {
    w.key("heterogeneity");
    heterogeneity->write_json(w);
  }
  w.end_object();
}

}  // namespace ayd::model
