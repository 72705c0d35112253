#include "ayd/cli/args.hpp"

#include <cstdlib>
#include <sstream>

#include "ayd/util/contracts.hpp"
#include "ayd/util/error.hpp"
#include "ayd/util/strings.hpp"

namespace ayd::cli {

ArgParser::ArgParser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {
  add_flag("help", "show this help and exit");
}

void ArgParser::add_flag(const std::string& name, const std::string& help) {
  AYD_REQUIRE(!specs_.contains(name), "duplicate argument: " + name);
  specs_[name] = Spec{help, "", /*is_flag=*/true, false};
  order_.push_back(name);
}

void ArgParser::add_option(const std::string& name,
                           const std::string& default_value,
                           const std::string& help) {
  AYD_REQUIRE(!specs_.contains(name), "duplicate argument: " + name);
  specs_[name] = Spec{help, default_value, /*is_flag=*/false, false};
  order_.push_back(name);
}

const ArgParser::Spec& ArgParser::lookup(const std::string& name) const {
  const auto it = specs_.find(name);
  AYD_REQUIRE(it != specs_.end(), "undeclared argument: " + name);
  return it->second;
}

void ArgParser::parse_args(const std::vector<std::string>& args) {
  std::vector<const char*> argv;
  argv.reserve(args.size() + 1);
  argv.push_back(program_.c_str());  // synthetic argv[0]; parse skips it
  for (const std::string& a : args) argv.push_back(a.c_str());
  parse(static_cast<int>(argv.size()), argv.data());
}

void ArgParser::parse(int argc, const char* const* argv) {
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) args.emplace_back(argv[i]);

  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (!util::starts_with(arg, "--")) {
      throw util::CliError("unexpected positional argument: " + arg);
    }
    std::string name = arg.substr(2);
    std::string value;
    bool has_value = false;
    const auto eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
      has_value = true;
    }
    const auto it = specs_.find(name);
    if (it == specs_.end()) {
      throw util::CliError("unknown argument: --" + name +
                           " (see --help)");
    }
    Spec& spec = it->second;
    if (spec.is_flag) {
      if (has_value) {
        throw util::CliError("flag --" + name + " does not take a value");
      }
      spec.given = true;
      if (name == "help") help_requested_ = true;
      continue;
    }
    if (!has_value) {
      if (i + 1 >= args.size()) {
        throw util::CliError("option --" + name + " needs a value");
      }
      value = args[++i];
    }
    spec.value = value;
    spec.given = true;
  }
}

std::string ArgParser::help() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\noptions:\n";
  for (const std::string& name : order_) {
    const Spec& spec = specs_.at(name);
    std::string left = "  --" + name;
    if (!spec.is_flag) left += "=<value>";
    os << util::pad_right(left, 28) << spec.help;
    if (!spec.is_flag && !spec.value.empty()) {
      os << " (default: " << spec.value << ")";
    }
    os << "\n";
  }
  return os.str();
}

bool ArgParser::flag(const std::string& name) const {
  const Spec& spec = lookup(name);
  AYD_REQUIRE(spec.is_flag, "--" + name + " is not a flag");
  return spec.given;
}

bool ArgParser::given(const std::string& name) const {
  return lookup(name).given;
}

const std::string& ArgParser::option(const std::string& name) const {
  const Spec& spec = lookup(name);
  AYD_REQUIRE(!spec.is_flag, "--" + name + " is a flag, not an option");
  return spec.value;
}

double ArgParser::option_double(const std::string& name) const {
  const std::string& v = option(name);
  try {
    std::size_t pos = 0;
    const double d = std::stod(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return d;
  } catch (const std::exception&) {
    throw util::CliError("option --" + name + " expects a number, got: " + v);
  }
}

std::int64_t ArgParser::option_int(const std::string& name) const {
  const std::string& v = option(name);
  try {
    std::size_t pos = 0;
    const long long i = std::stoll(v, &pos);
    if (pos != v.size()) throw std::invalid_argument(v);
    return i;
  } catch (const std::exception&) {
    throw util::CliError("option --" + name +
                         " expects an integer, got: " + v);
  }
}

std::uint64_t ArgParser::option_uint(const std::string& name) const {
  const std::int64_t i = option_int(name);
  if (i < 0) {
    throw util::CliError("option --" + name + " expects a nonnegative value");
  }
  return static_cast<std::uint64_t>(i);
}

std::string env_or(const std::string& name, const std::string& fallback) {
  const char* v = std::getenv(name.c_str());
  return v != nullptr ? std::string(v) : fallback;
}

}  // namespace ayd::cli
