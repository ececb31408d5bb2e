//===- tests/compcertx/optimize_test.cpp - Peephole optimizer tests -------------===//

#include "compcertx/Optimize.h"

#include "compcertx/CodeGen.h"
#include "compcertx/Linker.h"
#include "compcertx/Validate.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

ClightModule makeModule(const std::string &Src) {
  ClightModule M = parseModuleOrDie("m", Src);
  typeCheckOrDie(M);
  return M;
}

PrimHandler noPrims() {
  return [](const std::string &,
            const std::vector<std::int64_t> &) -> std::optional<std::int64_t> {
    return std::nullopt;
  };
}

/// Compiles with and without optimization and runs both on the same case.
void expectSameBehavior(const ClightModule &M, const std::string &Fn,
                        std::vector<std::int64_t> Args) {
  AsmProgram Plain = compileModule(M);
  AsmProgram Optim = compileModule(M);
  optimizeProgram(Optim);

  AsmProgramPtr PlainP = linkPrograms("plain", {&Plain});
  AsmProgramPtr OptimP = linkPrograms("optim", {&Optim});
  VmRun A = runVmSequential(PlainP, Fn, Args, noPrims());
  VmRun B = runVmSequential(OptimP, Fn, Args, noPrims());
  EXPECT_EQ(A.Ret.has_value(), B.Ret.has_value());
  if (A.Ret && B.Ret) {
    EXPECT_EQ(*A.Ret, *B.Ret);
  }
  EXPECT_EQ(A.Globals, B.Globals);
}

} // namespace

TEST(OptimizeTest, ConstantFoldingShrinksCode) {
  ClightModule M = makeModule("int f() { return 2 * 3 + 4 - 1; }");
  AsmProgram P = compileModule(M);
  size_t Before = P.Funcs[0].Code.size();
  OptimizeStats S = optimizeProgram(P);
  EXPECT_GT(S.Folded, 0u);
  EXPECT_LT(P.Funcs[0].Code.size(), Before);
  AsmProgramPtr Linked = linkPrograms("p", {&P});
  EXPECT_EQ(runVmSequential(Linked, "f", {}, noPrims()).Ret, 9);
}

TEST(OptimizeTest, PreservesDivisionByZeroTrap) {
  // `1/0` must still trap after optimization: folding it away would be a
  // miscompilation ("going wrong" must be preserved).
  ClightModule M = makeModule("int f() { return 1 / 0; }");
  AsmProgram P = compileModule(M);
  optimizeProgram(P);
  AsmProgramPtr Linked = linkPrograms("p", {&P});
  VmRun R = runVmSequential(Linked, "f", {}, noPrims());
  EXPECT_FALSE(R.Ret.has_value());
  EXPECT_NE(R.Error.find("division"), std::string::npos);
}

TEST(OptimizeTest, FusesNegatedComparisons) {
  // `!(a < b)` becomes a single Ge.
  ClightModule M = makeModule("int f(int a, int b) { return !(a < b); }");
  AsmProgram P = compileModule(M);
  OptimizeStats S = optimizeProgram(P);
  EXPECT_GT(S.FusedCompares, 0u);
  expectSameBehavior(M, "f", {1, 2});
  expectSameBehavior(M, "f", {2, 1});
  expectSameBehavior(M, "f", {2, 2});
}

TEST(OptimizeTest, ConstantConditionBecomesJump) {
  ClightModule M = makeModule(R"(
    int f(int x) {
      if (1) { return x + 1; }
      return x - 1;
    }
  )");
  AsmProgram P = compileModule(M);
  OptimizeStats S = optimizeProgram(P);
  EXPECT_GT(S.ConstBranches, 0u);
  expectSameBehavior(M, "f", {10});
}

TEST(OptimizeTest, WhileTrueLoopsSurvive) {
  // `while (1)` contains a constant branch and a back jump; optimization
  // must keep the loop structure (and the break) intact.
  ClightModule M = makeModule(R"(
    int f(int n) {
      int i = 0;
      while (1) {
        i = i + 1;
        if (i >= n) { break; }
      }
      return i;
    }
  )");
  AsmProgram P = compileModule(M);
  optimizeProgram(P);
  AsmProgramPtr Linked = linkPrograms("p", {&P});
  EXPECT_EQ(runVmSequential(Linked, "f", {5}, noPrims()).Ret, 5);
  EXPECT_EQ(runVmSequential(Linked, "f", {-3}, noPrims()).Ret, 1);
}

TEST(OptimizeTest, BranchTargetsRemappedThroughDeletions) {
  ClightModule M = makeModule(R"(
    int f(int x) {
      int acc = 0;
      if (x > 0 && 1) { acc = acc + (2 * 3); }
      else { acc = acc - (4 + 5); }
      while (acc > 100) { acc = acc - 100; }
      return acc;
    }
  )");
  expectSameBehavior(M, "f", {1});
  expectSameBehavior(M, "f", {0});
  expectSameBehavior(M, "f", {-7});
}

TEST(OptimizeTest, IdempotentAtFixpoint) {
  ClightModule M = makeModule("int f() { return 1 + 2 * 3; }");
  AsmProgram P = compileModule(M);
  optimizeProgram(P);
  std::vector<Instr> Once = P.Funcs[0].Code;
  OptimizeStats Again = optimizeProgram(P);
  EXPECT_EQ(Again.total(), 0u);
  EXPECT_EQ(P.Funcs[0].Code.size(), Once.size());
}

TEST(OptimizeTest, PrimitiveTracePreserved) {
  ClightModule M = makeModule(R"(
    extern int p(int x);
    int f(int a) { return (0 || p(1 + 2)) + (1 && p(a)); }
  )");
  AsmProgram Plain = compileModule(M);
  AsmProgram Optim = compileModule(M);
  optimizeProgram(Optim);
  AsmProgramPtr PlainP = linkPrograms("plain", {&Plain});
  AsmProgramPtr OptimP = linkPrograms("optim", {&Optim});
  auto Prims = []() {
    return [](const std::string &, const std::vector<std::int64_t> &Args)
               -> std::optional<std::int64_t> { return Args[0] * 2; };
  };
  VmRun A = runVmSequential(PlainP, "f", {5}, Prims());
  VmRun B = runVmSequential(OptimP, "f", {5}, Prims());
  ASSERT_TRUE(A.Ret && B.Ret);
  EXPECT_EQ(*A.Ret, *B.Ret);
  EXPECT_EQ(A.Trace, B.Trace); // same primitive calls in the same order
}

// ---- Randomized: optimized code agrees with the reference interpreter
// on the same fuzz corpus shape the unoptimized fuzzer uses. ----

class OptimizedDiffTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(OptimizedDiffTest, OptimizedAgreesWithInterpreter) {
  Rng R(GetParam());
  for (int Prog = 0; Prog != 15; ++Prog) {
    // Small arithmetic-heavy functions exercise the folder hard.
    std::string Src = "int f(int a, int b) { int acc = 0;\n";
    for (int S = 0; S != 6; ++S) {
      std::int64_t K1 = R.range(-9, 9), K2 = R.range(-9, 9);
      switch (R.below(4)) {
      case 0:
        Src += "  acc = acc + (" + std::to_string(K1) + " * " +
               std::to_string(K2) + " + a);\n";
        break;
      case 1:
        Src += "  if (" + std::to_string(K1) + " < " + std::to_string(K2) +
               ") { acc = acc - b; } else { acc = acc + 1; }\n";
        break;
      case 2:
        Src += "  acc = acc + !(a < " + std::to_string(K1) + ");\n";
        break;
      default:
        Src += "  while (acc > 50) { acc = acc - (25 + " +
               std::to_string(K1 < 0 ? -K1 : K1) + "); }\n";
        break;
      }
    }
    Src += "  return acc; }\n";
    ClightModule M = makeModule(Src);

    AsmProgram P = compileModule(M);
    optimizeProgram(P);
    AsmProgramPtr Linked = linkPrograms("p", {&P});

    for (int C = 0; C != 6; ++C) {
      std::vector<std::int64_t> Args = {R.range(-50, 50), R.range(-50, 50)};
      Interp Ref(M, noPrims());
      std::optional<std::int64_t> Want = Ref.call("f", Args);
      VmRun Got = runVmSequential(Linked, "f", Args, noPrims());
      ASSERT_EQ(Want.has_value(), Got.Ret.has_value()) << Src;
      if (Want) {
        EXPECT_EQ(*Want, *Got.Ret) << Src;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizedDiffTest,
                         ::testing::Values(3, 14, 15, 92, 65, 35));
