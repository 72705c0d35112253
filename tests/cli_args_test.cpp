#include "ayd/cli/args.hpp"

#include <cstdlib>
#include <gtest/gtest.h>

#include "ayd/cli/experiment.hpp"
#include "ayd/util/error.hpp"

namespace ayd::cli {
namespace {

ArgParser make_parser() {
  ArgParser p("prog", "test program");
  p.add_flag("verbose", "chatty output");
  p.add_option("count", "10", "how many");
  p.add_option("name", "", "a label");
  return p;
}

void parse(ArgParser& p, std::initializer_list<const char*> args) {
  std::vector<const char*> argv{"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  p.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgParser, DefaultsApply) {
  ArgParser p = make_parser();
  parse(p, {});
  EXPECT_FALSE(p.flag("verbose"));
  EXPECT_EQ(p.option("count"), "10");
  EXPECT_EQ(p.option_int("count"), 10);
}

TEST(ArgParser, EqualsSyntax) {
  ArgParser p = make_parser();
  parse(p, {"--count=42", "--name=hera"});
  EXPECT_EQ(p.option_int("count"), 42);
  EXPECT_EQ(p.option("name"), "hera");
}

TEST(ArgParser, SpaceSyntax) {
  ArgParser p = make_parser();
  parse(p, {"--count", "7"});
  EXPECT_EQ(p.option_int("count"), 7);
}

TEST(ArgParser, FlagsSet) {
  ArgParser p = make_parser();
  parse(p, {"--verbose"});
  EXPECT_TRUE(p.flag("verbose"));
}

TEST(ArgParser, GivenSeparatesAnExplicitDefaultFromAnAbsentOption) {
  ArgParser p = make_parser();
  parse(p, {"--count=10", "--verbose"});
  EXPECT_TRUE(p.given("count"));  // explicit, though equal to the default
  EXPECT_FALSE(p.given("name"));
  EXPECT_TRUE(p.given("verbose"));
  EXPECT_FALSE(p.given("help"));
  EXPECT_THROW((void)p.given("bogus"), util::InvalidArgument);
}

TEST(ArgParser, UnknownArgumentRejected) {
  ArgParser p = make_parser();
  EXPECT_THROW(parse(p, {"--bogus"}), util::CliError);
}

TEST(ArgParser, PositionalRejected) {
  ArgParser p = make_parser();
  EXPECT_THROW(parse(p, {"stray"}), util::CliError);
}

TEST(ArgParser, FlagWithValueRejected) {
  ArgParser p = make_parser();
  EXPECT_THROW(parse(p, {"--verbose=yes"}), util::CliError);
}

TEST(ArgParser, MissingValueRejected) {
  ArgParser p = make_parser();
  EXPECT_THROW(parse(p, {"--count"}), util::CliError);
}

TEST(ArgParser, NumericValidation) {
  ArgParser p = make_parser();
  parse(p, {"--count=abc"});
  EXPECT_THROW((void)p.option_int("count"), util::CliError);
  EXPECT_THROW((void)p.option_double("count"), util::CliError);
}

TEST(ArgParser, NegativeRejectedForUnsigned) {
  ArgParser p = make_parser();
  parse(p, {"--count=-5"});
  EXPECT_EQ(p.option_int("count"), -5);
  EXPECT_THROW((void)p.option_uint("count"), util::CliError);
}

TEST(ArgParser, DoubleParsing) {
  ArgParser p = make_parser();
  parse(p, {"--count=2.5e-3"});
  EXPECT_DOUBLE_EQ(p.option_double("count"), 2.5e-3);
}

TEST(ArgParser, HelpRequested) {
  ArgParser p = make_parser();
  parse(p, {"--help"});
  EXPECT_TRUE(p.help_requested());
  const std::string h = p.help();
  EXPECT_NE(h.find("--count"), std::string::npos);
  EXPECT_NE(h.find("how many"), std::string::npos);
  EXPECT_NE(h.find("default: 10"), std::string::npos);
}

TEST(ArgParser, TypeMisuseIsProgrammerError) {
  ArgParser p = make_parser();
  parse(p, {});
  EXPECT_THROW((void)p.flag("count"), util::InvalidArgument);
  EXPECT_THROW((void)p.option("verbose"), util::InvalidArgument);
  EXPECT_THROW((void)p.option("undeclared"), util::InvalidArgument);
}

TEST(EnvOr, ReadsEnvironment) {
  ::setenv("AYD_TEST_ENV_VAR", "hello", 1);
  EXPECT_EQ(env_or("AYD_TEST_ENV_VAR", "fallback"), "hello");
  ::unsetenv("AYD_TEST_ENV_VAR");
  EXPECT_EQ(env_or("AYD_TEST_ENV_VAR", "fallback"), "fallback");
}

TEST(ExperimentContext, DefaultsAndOverrides) {
  ::unsetenv("AYD_SCALE");
  ArgParser p("bench", "x");
  add_experiment_options(p);
  std::vector<const char*> argv{"bench", "--runs=33", "--patterns=44",
                                "--seed=5", "--des"};
  p.parse(static_cast<int>(argv.size()), argv.data());
  const ExperimentContext ctx = read_experiment_context(p);
  EXPECT_EQ(ctx.runs, 33u);
  EXPECT_EQ(ctx.patterns, 44u);
  EXPECT_EQ(ctx.seed, 5u);
  EXPECT_TRUE(ctx.use_des_engine);
  const auto rep = ctx.replication();
  EXPECT_EQ(rep.replicas, 33u);
  EXPECT_EQ(rep.backend, sim::Backend::kDes);
}

TEST(ExperimentContext, PaperScaleEnv) {
  ::setenv("AYD_SCALE", "paper", 1);
  ArgParser p("bench", "x");
  add_experiment_options(p);
  std::vector<const char*> argv{"bench"};
  p.parse(static_cast<int>(argv.size()), argv.data());
  const ExperimentContext ctx = read_experiment_context(p);
  EXPECT_EQ(ctx.runs, 500u);
  EXPECT_EQ(ctx.patterns, 500u);
  ::unsetenv("AYD_SCALE");
}

TEST(ExperimentContext, FlagsBeatEnv) {
  ::setenv("AYD_SCALE", "paper", 1);
  ArgParser p("bench", "x");
  add_experiment_options(p);
  std::vector<const char*> argv{"bench", "--runs=9"};
  p.parse(static_cast<int>(argv.size()), argv.data());
  const ExperimentContext ctx = read_experiment_context(p);
  EXPECT_EQ(ctx.runs, 9u);
  EXPECT_EQ(ctx.patterns, 500u);  // env still applies where not overridden
  ::unsetenv("AYD_SCALE");
}

}  // namespace
}  // namespace ayd::cli
