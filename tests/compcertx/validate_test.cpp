//===- tests/compcertx/validate_test.cpp - Translation validation tests ---------===//

#include "compcertx/Validate.h"

#include "lang/Parser.h"
#include "lang/TypeCheck.h"

#include <gtest/gtest.h>

#include <limits>

using namespace ccal;

namespace {

ClightModule makeModule(const std::string &Src) {
  ClightModule M = parseModuleOrDie("m", Src);
  typeCheckOrDie(M);
  return M;
}

std::function<PrimHandler()> countingPrims() {
  return []() -> PrimHandler {
    auto Counter = std::make_shared<std::int64_t>(0);
    return [Counter](const std::string &Name,
                     const std::vector<std::int64_t> &Args)
               -> std::optional<std::int64_t> {
      // Deterministic in (call index, name, args).
      std::int64_t V = ++*Counter * 7 + static_cast<std::int64_t>(Name.size());
      for (std::int64_t A : Args)
        V += A;
      return V;
    };
  };
}

} // namespace

TEST(ValidateTest, StraightLineProgramsAgree) {
  ClightModule M = makeModule(R"(
    int g = 3;
    int f(int a, int b) {
      g = g + a;
      return g * b - a / (b + 1);
    }
  )");
  std::vector<ValidationCase> Cases = {
      {"f", {1, 2}}, {"f", {-5, 3}}, {"f", {100, 1}}, {"f", {0, 0}}};
  ValidationReport R = validateTranslation(M, Cases, countingPrims());
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.CasesChecked, 4u);
}

TEST(ValidateTest, ControlFlowAgrees) {
  ClightModule M = makeModule(R"(
    int collatz(int n) {
      int steps = 0;
      while (n != 1 && steps < 200) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        steps = steps + 1;
      }
      return steps;
    }
  )");
  std::vector<ValidationCase> Cases;
  for (std::int64_t N = 1; N <= 30; ++N)
    Cases.push_back({"collatz", {N}});
  ValidationReport R = validateTranslation(M, Cases, countingPrims());
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(ValidateTest, PrimitiveTracesCompared) {
  ClightModule M = makeModule(R"(
    extern int poll(int x);
    int f(int n) {
      int s = 0;
      int i = 0;
      while (i < n) {
        s = s + poll(i);
        i = i + 1;
      }
      return s;
    }
  )");
  std::vector<ValidationCase> Cases = {{"f", {0}}, {"f", {1}}, {"f", {5}}};
  ValidationReport R = validateTranslation(M, Cases, countingPrims());
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(ValidateTest, ShortCircuitPrimSkippingAgrees) {
  // The compiled code must skip exactly the same primitive calls as the
  // reference semantics (the classic miscompilation caught by trace
  // comparison).
  ClightModule M = makeModule(R"(
    extern int p(int x);
    int f(int a, int b) { return (a && p(1)) + (b || p(2)); }
  )");
  std::vector<ValidationCase> Cases = {
      {"f", {0, 0}}, {"f", {0, 1}}, {"f", {1, 0}}, {"f", {1, 1}}};
  ValidationReport R = validateTranslation(M, Cases, countingPrims());
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(ValidateTest, GoingWrongIsPreservedTogether) {
  // Both sides trap on the same division by zero: validation counts the
  // case as agreeing (the compiler preserved the error).
  ClightModule M = makeModule("int f(int x) { return 10 / x; }");
  std::vector<ValidationCase> Cases = {{"f", {0}}, {"f", {5}}};
  ValidationReport R = validateTranslation(M, Cases, countingPrims());
  EXPECT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.BothStuck, 1u);
}

TEST(ValidateTest, ArraysAndGlobalsAgree) {
  ClightModule M = makeModule(R"(
    int a[8];
    int h = 0;
    void push_val(int v) {
      a[h % 8] = v;
      h = h + 1;
    }
    int sum() {
      int s = 0;
      int i = 0;
      while (i < 8) { s = s + a[i]; i = i + 1; }
      return s;
    }
    int driver(int n) {
      int i = 0;
      while (i < n) { push_val(i * i); i = i + 1; }
      return sum();
    }
  )");
  std::vector<ValidationCase> Cases = {{"driver", {3}}, {"driver", {12}}};
  ValidationReport R = validateTranslation(M, Cases, countingPrims());
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(ValidateTest, RecursionAgrees) {
  ClightModule M = makeModule(R"(
    int ack(int m, int n) {
      if (m == 0) { return n + 1; }
      if (n == 0) { return ack(m - 1, 1); }
      return ack(m - 1, ack(m, n - 1));
    }
  )");
  std::vector<ValidationCase> Cases = {{"ack", {2, 3}}, {"ack", {1, 5}}};
  ValidationReport R = validateTranslation(M, Cases, countingPrims());
  EXPECT_TRUE(R.Ok) << R.Error;
}

TEST(ValidateTest, OverflowWrapsIdenticallyOnAllThreeSides) {
  // ClightX int is modular 64-bit: + - * and negation wrap in two's
  // complement, INT64_MIN / -1 is INT64_MIN and INT64_MIN % -1 is 0, while
  // division by zero still traps.  Once these were C++ undefined
  // behaviour, and INT64_MIN / -1 killed the process with SIGFPE in the
  // interpreter, the VM and the optimizer's constant folding (`folded`
  // below is folded at compile time).
  ClightModule M = makeModule(R"(
    int quot(int a, int b) { return a / b; }
    int rem(int a, int b) { return a % b; }
    int sum(int a, int b) { return a + b; }
    int diff(int a, int b) { return a - b; }
    int prod(int a, int b) { return a * b; }
    int negate(int a) { return -a; }
    int folded() {
      return (0 - 9223372036854775807 - 1) / (0 - 1) +
             -(0 - 9223372036854775807 - 1) + 9223372036854775807 * 2;
    }
  )");
  const std::int64_t Min = std::numeric_limits<std::int64_t>::min();
  const std::int64_t Max = std::numeric_limits<std::int64_t>::max();
  struct Expect {
    ValidationCase Case;
    std::optional<std::int64_t> Result; ///< nullopt: the call traps
  };
  const std::vector<Expect> Expected = {
      {{"quot", {Min, -1}}, Min},
      {{"rem", {Min, -1}}, 0},
      {{"quot", {Min, 1}}, Min},
      {{"rem", {-7, 2}}, -1},
      {{"sum", {Max, 1}}, Min},
      {{"diff", {Min, 1}}, Max},
      {{"prod", {Max, 2}}, -2},
      {{"prod", {Min, -1}}, Min},
      {{"negate", {Min}}, Min},
      {{"folded", {}}, -2}, // Min + Min + (-2), wrapped
      {{"quot", {Min, 0}}, std::nullopt},
      {{"rem", {1, 0}}, std::nullopt},
  };
  std::vector<ValidationCase> Cases;
  for (const Expect &E : Expected)
    Cases.push_back(E.Case);
  ValidationOptions Opts;
  Opts.CheckOptimized = true;
  ValidationReport R = validateTranslation(M, Cases, countingPrims(), Opts);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.CasesChecked, Cases.size());
  EXPECT_EQ(R.BothStuck, 2u);
  EXPECT_GT(R.OptimizerRewrites, 0u);

  // Agreement alone would also accept three identical wrong answers.
  Interp I(M, countingPrims()());
  for (const Expect &E : Expected)
    EXPECT_EQ(I.call(E.Case.Fn, E.Case.Args), E.Result) << E.Case.Fn;
}
