// Tiny command-line argument parser used by the bench and example
// binaries. Supports --name=value, --name value, boolean --flag, and
// --help generation. Unknown arguments are an error (bench outputs feed
// EXPERIMENTS.md; silent typos would corrupt comparisons).

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ayd::cli {

class ArgParser {
 public:
  ArgParser(std::string program, std::string description);

  /// Declares a boolean flag (false unless present).
  void add_flag(const std::string& name, const std::string& help);

  /// Declares a string option with a default value.
  void add_option(const std::string& name, const std::string& default_value,
                  const std::string& help);

  /// Parses argv. Throws util::CliError on malformed/unknown arguments.
  /// If --help is present, sets help_requested() and skips validation.
  void parse(int argc, const char* const* argv);

  /// Same, for an argument vector *without* a program name (subcommand
  /// tails, service request parameters): the one bridge between
  /// string-vector callers and the argv contract, so no caller
  /// hand-rolls a synthetic argv.
  void parse_args(const std::vector<std::string>& args);

  [[nodiscard]] bool help_requested() const { return help_requested_; }
  [[nodiscard]] std::string help() const;

  [[nodiscard]] bool flag(const std::string& name) const;
  /// True when the flag or option `name` appeared in the parsed arguments
  /// (an option's default value does not count).
  [[nodiscard]] bool given(const std::string& name) const;
  [[nodiscard]] const std::string& option(const std::string& name) const;
  [[nodiscard]] double option_double(const std::string& name) const;
  [[nodiscard]] std::int64_t option_int(const std::string& name) const;
  [[nodiscard]] std::uint64_t option_uint(const std::string& name) const;

 private:
  struct Spec {
    std::string help;
    std::string value;
    bool is_flag = false;
    bool given = false;
  };

  [[nodiscard]] const Spec& lookup(const std::string& name) const;
  [[nodiscard]] Spec& lookup(const std::string& name);

  std::string program_;
  std::string description_;
  std::map<std::string, Spec> specs_;
  std::vector<std::string> order_;  ///< declaration order for --help
  bool help_requested_ = false;
};

/// Reads an environment variable; empty string when unset.
[[nodiscard]] std::string env_or(const std::string& name,
                                 const std::string& fallback);

}  // namespace ayd::cli
