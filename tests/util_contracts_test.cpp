#include "ayd/util/contracts.hpp"

#include <gtest/gtest.h>
#include <limits>

#include "ayd/math/special.hpp"
#include "ayd/util/error.hpp"

namespace ayd::util {
namespace {

TEST(Require, PassesWhenTrue) {
  EXPECT_NO_THROW(AYD_REQUIRE(1 + 1 == 2, "arithmetic"));
}

TEST(Require, ThrowsInvalidArgumentWhenFalse) {
  EXPECT_THROW(AYD_REQUIRE(false, "must not happen"), InvalidArgument);
}

TEST(Require, MessageContainsExpressionAndNote) {
  try {
    AYD_REQUIRE(2 < 1, "ordering broken");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 < 1"), std::string::npos) << what;
    EXPECT_NE(what.find("ordering broken"), std::string::npos) << what;
  }
}

TEST(Require, MessageQuotesRepositoryRelativePaths) {
  // Library and test sources alike are quoted relative to the repository
  // root, whatever directory the tree was built in.
  try {
    AYD_REQUIRE(2 < 1, "ordering broken");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at tests/util_contracts_test.cpp:"),
              std::string::npos)
        << what;
  }
  try {
    (void)math::expm1_over_x(std::numeric_limits<double>::quiet_NaN());
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(" at src/ayd/math/special.cpp:"), std::string::npos)
        << what;
  }
}

TEST(Ensure, ThrowsLogicErrorWhenFalse) {
  EXPECT_THROW(AYD_ENSURE(false, "invariant"), LogicError);
  EXPECT_NO_THROW(AYD_ENSURE(true, "invariant"));
}

TEST(RequireFinite, AcceptsFiniteRejectsNanInf) {
  const double ok = 1.5;
  EXPECT_NO_THROW(AYD_REQUIRE_FINITE(ok));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(AYD_REQUIRE_FINITE(nan), InvalidArgument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(AYD_REQUIRE_FINITE(inf), InvalidArgument);
}

TEST(ErrorHierarchy, AllDeriveFromError) {
  EXPECT_THROW(throw InvalidArgument("x"), Error);
  EXPECT_THROW(throw LogicError("x"), Error);
  EXPECT_THROW(throw NumericalError("x"), Error);
  EXPECT_THROW(throw IoError("x"), Error);
  EXPECT_THROW(throw CliError("x"), Error);
}

TEST(ErrorHierarchy, CatchableAsStdException) {
  try {
    throw NumericalError("no convergence");
  } catch (const std::exception& e) {
    EXPECT_STREQ(e.what(), "no convergence");
  }
}

}  // namespace
}  // namespace ayd::util
