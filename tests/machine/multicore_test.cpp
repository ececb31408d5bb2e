//===- tests/machine/multicore_test.cpp - Multicore machine tests ---------------===//

#include "machine/MultiCore.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace ccal;

// A machine borrows its config, so only a config pointer the caller holds
// binds: a temporary one would die before the machine.
static_assert(
    std::is_constructible_v<MultiCoreMachine, const MachineConfigPtr &>);
static_assert(std::is_constructible_v<MultiCoreMachine,
                                      std::shared_ptr<MachineConfig> &>);
static_assert(!std::is_constructible_v<MultiCoreMachine, MachineConfigPtr>);
static_assert(!std::is_constructible_v<MultiCoreMachine,
                                       std::shared_ptr<MachineConfig>>);
static_assert(
    !std::is_constructible_v<MultiCoreMachine, const MachineConfigPtr &&>);

namespace {

ClightModule makeClient() {
  ClightModule M = parseModuleOrDie("client", R"(
    extern int tick();
    extern int local_work(int x);

    int t_main(int k) {
      int a = local_work(k);
      int b = tick();
      return a * 100 + b;
    }
  )");
  typeCheckOrDie(M);
  return M;
}

MachineConfigPtr makeConfig(unsigned Cpus) {
  static ClightModule Client;
  Client = makeClient();
  auto L = makeInterface("Lbase");
  L->addShared("tick", makeFetchIncPrim("tick"));
  L->addPrivate("local_work", [](const PrimCall &Call)
                    -> std::optional<PrimResult> {
    PrimResult Res;
    Res.Ret = Call.Args.empty() ? 0 : Call.Args[0] * 2;
    return Res;
  });
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "basic";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("basic.lasm", {&Client});
  for (ThreadId C = 1; C <= Cpus; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{
                             {"t_main", {static_cast<std::int64_t>(C)}}});
  return Cfg;
}

} // namespace

TEST(MultiCoreTest, SingleCpuRunsToCompletion) {
  MachineConfigPtr Cfg = makeConfig(1);
  MultiCoreMachine M(Cfg);
  ASSERT_TRUE(M.ok()) << M.error();
  // CPU 1 is parked at the shared tick (local_work ran silently).
  EXPECT_EQ(M.schedulable(), std::vector<ThreadId>{1});
  EXPECT_EQ(M.pendingPrim(1), "tick");
  ASSERT_TRUE(M.step(1));
  EXPECT_TRUE(M.allIdle());
  EXPECT_EQ(M.log().size(), 1u);
  EXPECT_EQ(M.returns().at(1), std::vector<std::int64_t>{200});
}

TEST(MultiCoreTest, PrivatePrimsEmitNoEvents) {
  MachineConfigPtr Cfg = makeConfig(1);
  MultiCoreMachine M(Cfg);
  EXPECT_TRUE(M.log().empty()); // local_work already executed silently
}

TEST(MultiCoreTest, TwoCpusInterleaveSharedPrims) {
  MachineConfigPtr Cfg = makeConfig(2);
  MultiCoreMachine M(Cfg);
  ASSERT_TRUE(M.ok());
  EXPECT_EQ(M.schedulable().size(), 2u);
  ASSERT_TRUE(M.step(2)); // CPU 2 ticks first: gets 0
  ASSERT_TRUE(M.step(1));
  EXPECT_TRUE(M.allIdle());
  // CPU 2 ticked first: local_work(2) * 100 + tick 0 = 400; CPU 1 got
  // tick 1: local_work(1) * 100 + 1 = 201.
  EXPECT_EQ(M.returns().at(2), std::vector<std::int64_t>{400});
  EXPECT_EQ(M.returns().at(1), std::vector<std::int64_t>{201});
}

TEST(MultiCoreTest, ReturnsDependOnScheduleOrder) {
  MachineConfigPtr CfgA = makeConfig(2), CfgB = makeConfig(2);
  MultiCoreMachine A(CfgA);
  A.step(1);
  A.step(2);
  MultiCoreMachine B(CfgB);
  B.step(2);
  B.step(1);
  EXPECT_NE(A.returns(), B.returns());
}

TEST(MultiCoreTest, SnapshotsBorrowTheConfigAndProgram) {
  // Copying a snapshot writes no reference count: the config owns the
  // program, and only the caller owns the config.
  MachineConfigPtr Cfg = makeConfig(2);
  MultiCoreMachine M(Cfg);
  std::vector<MultiCoreMachine> Snapshots(4, M);
  EXPECT_EQ(Cfg.use_count(), 1);
  EXPECT_EQ(Cfg->Program.use_count(), 1);
  ASSERT_TRUE(Snapshots[3].step(2));
  EXPECT_EQ(Snapshots[3].log()[0].Tid, 2u);
}

TEST(MultiCoreTest, CopyIsIndependentSnapshot) {
  MachineConfigPtr Cfg = makeConfig(2);
  MultiCoreMachine M(Cfg);
  MultiCoreMachine Snapshot = M;
  ASSERT_TRUE(M.step(1));
  EXPECT_EQ(M.log().size(), 1u);
  EXPECT_TRUE(Snapshot.log().empty());
  ASSERT_TRUE(Snapshot.step(2));
  EXPECT_EQ(Snapshot.log()[0].Tid, 2u);
}

TEST(MultiCoreTest, UnknownPrimFaults) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int nosuch();
      int t_main() { return nosuch(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "bad";
  Cfg->Layer = makeInterface("Lempty");
  Cfg->Program = compileAndLink("bad.lasm", {&Client});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  MultiCoreMachine M(Cfg);
  EXPECT_FALSE(M.ok());
  EXPECT_NE(M.error().find("not provided"), std::string::npos);
}

TEST(MultiCoreTest, StuckSharedPrimFaultsAtStep) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int sticky();
      int t_main() { return sticky(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Lsticky");
  L->addShared("sticky", [](const PrimCall &) -> std::optional<PrimResult> {
    return std::nullopt;
  });
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "sticky";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("sticky.lasm", {&Client});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  MultiCoreMachine M(Cfg);
  ASSERT_TRUE(M.ok());
  EXPECT_FALSE(M.step(1));
  EXPECT_NE(M.error().find("stuck"), std::string::npos);
}

TEST(MultiCoreTest, BlockedPrimIsNotSchedulable) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int gate();
      int t_main() { return gate(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Lgate");
  // gate blocks until some tick event exists in the log; it is built as
  // a blocking primitive, so schedulable() dry-runs it.
  Primitive Gate;
  Gate.Name = "gate";
  Gate.MayBlock = true;
  Gate.Sem = [](const PrimCall &Call) -> std::optional<PrimResult> {
    if (Call.Fold->count(KindId("tick")) == 0)
      return PrimResult::blocked();
    PrimResult Res;
    Res.Ret = 1;
    Res.Events.push_back(Event(Call.Tid, KindId("gate")));
    return Res;
  };
  L->addPrim(Gate);
  L->addShared("tick", makeFetchIncPrim("tick"));
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "gate";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("gate.lasm", {&Client});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  MultiCoreMachine M(Cfg);
  ASSERT_TRUE(M.ok());
  EXPECT_TRUE(M.schedulable().empty()); // blocked, not schedulable
  EXPECT_FALSE(M.allIdle());            // ... but not done: a deadlock state
}

TEST(MultiCoreTest, UnmarkedBlockingPrimFaultsAtStep) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int gate();
      int t_main() { return gate(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  // A primitive that blocks without the MayBlock mark is never dry-run,
  // so its caller looks schedulable; stepping it faults the machine.
  auto L = makeInterface("Lgate_unmarked");
  L->addShared("gate", [](const PrimCall &) -> std::optional<PrimResult> {
    return PrimResult::blocked();
  });
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "gate_unmarked";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("gate.lasm", {&Client});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  MultiCoreMachine M(Cfg);
  ASSERT_TRUE(M.ok());
  EXPECT_EQ(M.schedulable(), std::vector<ThreadId>{1});
  EXPECT_FALSE(M.step(1));
  EXPECT_NE(M.error().find("not marked MayBlock"), std::string::npos)
      << M.error();
}

TEST(MultiCoreTest, BlockedPrivatePrimFaults) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int peek();
      int t_main() { return peek(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  // A private primitive runs inside the local slice and is never dry-run,
  // so it may not block: the machine faults instead of resuming it.
  auto L = makeInterface("Lpeek");
  L->addPrivate("peek", [](const PrimCall &) -> std::optional<PrimResult> {
    return PrimResult::blocked();
  });
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "peek";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("peek.lasm", {&Client});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  MultiCoreMachine M(Cfg);
  EXPECT_FALSE(M.ok());
  EXPECT_NE(M.error().find("not marked MayBlock"), std::string::npos)
      << M.error();
}
