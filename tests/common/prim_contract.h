//===- tests/common/prim_contract.h - One primitive contract -*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every machine calls primitives through machine/Core.h, so each must
/// hold the same contract: a primitive the layer lacks faults its caller,
/// a stuck shared primitive faults the step that calls it, a blocked
/// MayBlock primitive keeps its caller off the scheduler's menu, and a
/// primitive that blocks without being a shared MayBlock one faults.
///
/// This type-parameterized suite states the contract once.  A machine's
/// test file instantiates it with a traits type whose
/// `static test::WithConfig<Machine, ConfigPtr> make(LayerPtr,
/// AsmProgramPtr)` builds that machine with one CPU (or thread) running
/// the program's `t_main`, and returns it with the config it borrows.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_TESTS_COMMON_PRIM_CONTRACT_H
#define CCAL_TESTS_COMMON_PRIM_CONTRACT_H

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"

#include <gtest/gtest.h>

namespace ccal {
namespace test {

/// A machine together with its config: a machine borrows its config, so
/// a factory that builds the config hands over both.
template <typename Machine, typename ConfigPtr> struct WithConfig {
  ConfigPtr Cfg;
  Machine M;
};

/// A program whose `t_main` returns `Prim()`.
inline AsmProgramPtr callerOf(const std::string &Prim) {
  ClightModule M = parseModuleOrDie(
      "c", "extern int " + Prim + "();\nint t_main() { return " + Prim +
               "(); }\n");
  typeCheckOrDie(M);
  return compileAndLink(Prim + ".lasm", {&M});
}

/// Steps the lowest schedulable id until the machine faults or nothing is
/// schedulable (finished or blocked).
template <typename Machine> void drive(Machine &M) {
  for (unsigned Steps = 0; Steps != 256 && M.ok(); ++Steps) {
    std::vector<ThreadId> Ready = M.schedulable();
    if (Ready.empty())
      return;
    M.step(Ready.front());
  }
}

inline std::optional<PrimResult> blocks(const PrimCall &) {
  return PrimResult::blocked();
}

} // namespace test

template <typename Traits> class PrimContractTest : public ::testing::Test {};

TYPED_TEST_SUITE_P(PrimContractTest);

TYPED_TEST_P(PrimContractTest, UnknownPrimFaults) {
  auto [Cfg, M] =
      TypeParam::make(makeInterface("Lempty"), test::callerOf("nosuch"));
  test::drive(M);
  EXPECT_FALSE(M.ok());
  EXPECT_NE(M.error().find("call to primitive 'nosuch' not provided"),
            std::string::npos)
      << M.error();
}

TYPED_TEST_P(PrimContractTest, StuckSharedPrimFaultsAtStep) {
  auto L = makeInterface("Lsticky");
  L->addShared("sticky", [](const PrimCall &) -> std::optional<PrimResult> {
    return std::nullopt;
  });
  auto [Cfg, M] = TypeParam::make(L, test::callerOf("sticky"));
  ASSERT_TRUE(M.ok()) << M.error();
  test::drive(M);
  EXPECT_FALSE(M.ok());
  EXPECT_NE(M.error().find("shared primitive 'sticky' got stuck (data race "
                           "or protocol violation); log: "),
            std::string::npos)
      << M.error();
}

TYPED_TEST_P(PrimContractTest, BlockedPrimIsNotSchedulable) {
  auto L = makeInterface("Lgate");
  Primitive Gate;
  Gate.Name = "gate";
  Gate.MayBlock = true;
  Gate.Sem = test::blocks;
  L->addPrim(Gate);
  auto [Cfg, M] = TypeParam::make(L, test::callerOf("gate"));
  test::drive(M);
  ASSERT_TRUE(M.ok()) << M.error();
  EXPECT_TRUE(M.schedulable().empty()); // blocked, not schedulable
  EXPECT_FALSE(M.allIdle());            // ... but not done: a deadlock state
}

TYPED_TEST_P(PrimContractTest, UnmarkedBlockingPrimFaultsAtStep) {
  // Never dry-run, so its caller looks schedulable until the call.
  auto L = makeInterface("Lgate_unmarked");
  L->addShared("gate", test::blocks);
  auto [Cfg, M] = TypeParam::make(L, test::callerOf("gate"));
  ASSERT_TRUE(M.ok()) << M.error();
  test::drive(M);
  EXPECT_FALSE(M.ok());
  EXPECT_NE(M.error().find("shared primitive 'gate' blocked but is not "
                           "marked MayBlock"),
            std::string::npos)
      << M.error();
}

TYPED_TEST_P(PrimContractTest, BlockedPrivatePrimFaults) {
  // A private primitive is never dry-run, so it may not block at all.
  auto L = makeInterface("Lpeek");
  L->addPrivate("peek", test::blocks);
  auto [Cfg, M] = TypeParam::make(L, test::callerOf("peek"));
  test::drive(M);
  EXPECT_FALSE(M.ok());
  EXPECT_NE(M.error().find("private primitive 'peek' blocked but is not "
                           "marked MayBlock"),
            std::string::npos)
      << M.error();
}

REGISTER_TYPED_TEST_SUITE_P(PrimContractTest, UnknownPrimFaults,
                            StuckSharedPrimFaultsAtStep,
                            BlockedPrimIsNotSchedulable,
                            UnmarkedBlockingPrimFaultsAtStep,
                            BlockedPrivatePrimFaults);

} // namespace ccal

#endif // CCAL_TESTS_COMMON_PRIM_CONTRACT_H
