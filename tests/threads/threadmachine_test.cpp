//===- tests/threads/threadmachine_test.cpp - Multithreaded machine tests -------===//

#include "threads/ThreadMachine.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "tests/common/prim_contract.h"
#include "threads/Sched.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace ccal;

// The multithreaded machine borrows its config like the multicore ones.
static_assert(
    std::is_constructible_v<ThreadedMachine, const ThreadedConfigPtr &>);
static_assert(!std::is_constructible_v<ThreadedMachine, ThreadedConfigPtr>);
static_assert(!std::is_constructible_v<ThreadedMachine,
                                       std::shared_ptr<ThreadedConfig>>);

namespace {

/// Two threads on one CPU sharing a CPU-local counter global; bump is a
/// shared observable prim, yield transfers control.
ThreadedConfigPtr makeYieldConfig(unsigned Rounds) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern void yield();
      extern int bump();
      int shared_counter = 0;

      int t_main(int rounds) {
        int acc = 0;
        int i = 0;
        while (i < rounds) {
          shared_counter = shared_counter + 1;
          acc = acc * 100 + bump();
          yield();
          i = i + 1;
        }
        return acc * 1000 + shared_counter;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();

  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}, {1, 0}};
  auto L = makeInterface("Lhtd_test");
  FoldPart<SchedState> Sched = installHighSchedPrims(*L, CpuOf);
  L->addShared("bump", makeFetchIncPrim("bump"));

  auto Cfg = std::make_shared<ThreadedConfig>();
  Cfg->Name = "yield2";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("yield2.lasm", {&Client});
  Cfg->Sched = Sched;
  Cfg->Threads.push_back(
      {0, 0, {{"t_main", {static_cast<std::int64_t>(Rounds)}}}});
  Cfg->Threads.push_back(
      {1, 0, {{"t_main", {static_cast<std::int64_t>(Rounds)}}}});
  return Cfg;
}

/// One thread on one CPU running `t_main`, for the primitive-contract
/// suite.
struct ThreadedOf {
  static test::WithConfig<ThreadedMachine, ThreadedConfigPtr>
  make(LayerPtr L, AsmProgramPtr P) {
    auto Cfg = std::make_shared<ThreadedConfig>();
    Cfg->Name = "contract";
    Cfg->Layer = std::move(L);
    Cfg->Program = std::move(P);
    Cfg->Sched.emplace(makeHighSchedReplayer({{1, 0}}));
    Cfg->Threads.push_back({1, 0, {{"t_main", {}}}});
    return {Cfg, ThreadedMachine(Cfg)};
  }
};

} // namespace

INSTANTIATE_TYPED_TEST_SUITE_P(Threaded, PrimContractTest, ThreadedOf);

TEST(ThreadMachineTest, NonPreemptiveSingleCpuIsDeterministic) {
  ThreadedConfigPtr Cfg = makeYieldConfig(2);
  ThreadedMachine M(Cfg);
  ASSERT_TRUE(M.ok()) << M.error();
  // Exactly one schedulable thread at a time on one CPU.
  while (!M.allIdle()) {
    std::vector<ThreadId> Ready = M.schedulable();
    ASSERT_EQ(Ready.size(), 1u);
    ASSERT_TRUE(M.step(Ready[0])) << M.error();
  }
  // Thread 0 ran first (idle dispatcher picks the lowest id); alternation
  // via yield gives bump values 0,2 to thread 0 and 1,3 to thread 1.
  auto Rets = M.returns();
  EXPECT_EQ(Rets.at(0), std::vector<std::int64_t>{2 * 1000 + 4});
  EXPECT_EQ(Rets.at(1), std::vector<std::int64_t>{103 * 1000 + 4});
}

TEST(ThreadMachineTest, ThreadsShareCpuLocalMemory) {
  ThreadedConfigPtr Cfg = makeYieldConfig(1);
  ThreadedMachine M(Cfg);
  while (!M.allIdle()) {
    std::vector<ThreadId> Ready = M.schedulable();
    ASSERT_FALSE(Ready.empty());
    ASSERT_TRUE(M.step(Ready[0]));
  }
  // shared_counter reached 2: both threads incremented the same global.
  std::int64_t Counter = M.cpuMemory(0)[0];
  EXPECT_EQ(Counter, 2);
}

TEST(ThreadMachineTest, ExitEventsAppendedOnCompletion) {
  ThreadedConfigPtr Cfg = makeYieldConfig(1);
  ThreadedMachine M(Cfg);
  while (!M.allIdle()) {
    std::vector<ThreadId> Ready = M.schedulable();
    ASSERT_FALSE(Ready.empty());
    ASSERT_TRUE(M.step(Ready[0]));
  }
  EXPECT_EQ(logCountKind(M.log(), ThreadExitEventKind), 2u);
  EXPECT_GE(logCountKind(M.log(), ReschedEventKind), 1u);
}

TEST(ThreadMachineTest, ExploreSingleCpuHasOneSchedule) {
  ThreadedExploreOptions Opts;
  ExploreResult Res = exploreThreaded(makeYieldConfig(2), Opts);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_EQ(Res.SchedulesExplored, 1u); // non-preemptive determinism
}

TEST(HighSchedReplayTest, YieldRotatesReadyQueue) {
  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}, {1, 0}, {2, 0}};
  Replayer<SchedState> R = makeHighSchedReplayer(CpuOf);
  Log L = {Event(0, ReschedEventKind), Event(0, KindId("spawn"), {1}),
           Event(0, KindId("spawn"), {2}), Event(0, KindId("yield"))};
  std::optional<SchedState> S = R.replay(L);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Current.at(0), 1);
  ASSERT_EQ(S->Ready.at(0).size(), 2u);
  EXPECT_EQ(S->Ready.at(0)[0], 2u);
  EXPECT_EQ(S->Ready.at(0)[1], 0u);
}

TEST(HighSchedReplayTest, SleepAndWakeupAcrossCpus) {
  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}, {1, 1}};
  Replayer<SchedState> R = makeHighSchedReplayer(CpuOf);
  Log L = {Event(0, ReschedEventKind), Event(1, ReschedEventKind),
           Event(0, KindId("sleep"), {9}), Event(1, KindId("wakeup"), {9})};
  std::optional<SchedState> S = R.replay(L);
  ASSERT_TRUE(S.has_value());
  // Thread 0 slept; CPU 0 became idle; the wakeup dispatched it directly.
  EXPECT_EQ(S->Current.at(0), 0);
  EXPECT_TRUE(S->Sleeping.empty());
}

TEST(HighSchedReplayTest, YieldByNonCurrentIsStuck) {
  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}, {1, 0}};
  Replayer<SchedState> R = makeHighSchedReplayer(CpuOf);
  Log L = {Event(0, ReschedEventKind), Event(1, KindId("yield"))};
  EXPECT_FALSE(R.replay(L).has_value());
}

TEST(LowSchedReplayTest, CswitchTransfersControl) {
  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}, {1, 0}};
  Replayer<SchedState> Low = makeLowSchedReplayer(CpuOf);
  Log L = {Event(0, ReschedEventKind), Event(0, KindId("cswitch"), {1}),
           Event(1, KindId("cswitch"), {0})};
  std::optional<SchedState> V = Low.replay(L);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->Current.at(0), 0);
}

TEST(LowSchedReplayTest, CswitchByNonCurrentIsStuck) {
  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}, {1, 0}};
  Replayer<SchedState> Low = makeLowSchedReplayer(CpuOf);
  Log L = {Event(0, ReschedEventKind), Event(1, KindId("cswitch"), {0})};
  EXPECT_FALSE(Low.replay(L).has_value());
}

TEST(ThreadMachineTest, CrossCpuWakeup) {
  // §5.1's cross-CPU path: a thread sleeping on CPU 0 is woken by a
  // thread on CPU 1; the idle CPU dispatches the woken thread directly
  // (the collapsed pending-queue semantics).
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("xc", R"(
      extern void sleep(int q);
      extern int wakeup(int q);
      extern void done(int v);

      int t_sleeper() {
        sleep(5);
        done(42);
        return 42;
      }

      int t_waker() { return wakeup(5); }
    )");
    typeCheckOrDie(M);
    return M;
  }();

  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}, {1, 1}};
  auto L = makeInterface("Lxc");
  FoldPart<SchedState> Sched = installHighSchedPrims(*L, CpuOf);
  L->addShared("done", makeEventPrim("done"));

  auto Cfg = std::make_shared<ThreadedConfig>();
  Cfg->Name = "crosscpu";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("crosscpu.lasm", {&Client});
  Cfg->Sched = Sched;
  Cfg->Threads.push_back({0, 0, {{"t_sleeper", {}}}});
  Cfg->Threads.push_back({1, 1, {{"t_waker", {}}}});

  // Drive the sleep before the wakeup (the other order is a lost wakeup;
  // see the deadlock test below).
  ThreadedMachine M(Cfg);
  ASSERT_TRUE(M.ok()) << M.error();
  ASSERT_TRUE(M.step(0)) << M.error(); // thread 0 sleeps; CPU 0 idles
  ASSERT_TRUE(M.step(1)) << M.error(); // thread 1 wakes it cross-CPU
  while (!M.allIdle()) {
    std::vector<ThreadId> Ready = M.schedulable();
    ASSERT_FALSE(Ready.empty()) << "deadlock: " << logToString(M.log());
    ASSERT_TRUE(M.step(Ready[0])) << M.error();
  }
  EXPECT_EQ(M.returns().at(0), std::vector<std::int64_t>{42});
  EXPECT_EQ(M.returns().at(1), std::vector<std::int64_t>{0}); // woke tid 0
  EXPECT_EQ(logCountKind(M.log(), KindId("done")), 1u);
}

TEST(ThreadMachineTest, LostCrossCpuWakeupIsADeadlock) {
  // The same program with the wakeup committed *before* the sleep: the
  // wakeup is a no-op (empty queue), the sleeper then sleeps forever, and
  // the explorer must report the deadlock on that schedule.
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("xc2", R"(
      extern void sleep(int q);
      extern int wakeup(int q);

      int t_sleeper() {
        sleep(5);
        return 1;
      }

      int t_waker() { return wakeup(5); }
    )");
    typeCheckOrDie(M);
    return M;
  }();

  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}, {1, 1}};
  auto L = makeInterface("Lxc2");
  FoldPart<SchedState> Sched = installHighSchedPrims(*L, CpuOf);

  auto Cfg = std::make_shared<ThreadedConfig>();
  Cfg->Name = "lostwakeup";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("lostwakeup.lasm", {&Client});
  Cfg->Sched = Sched;
  Cfg->Threads.push_back({0, 0, {{"t_sleeper", {}}}});
  Cfg->Threads.push_back({1, 1, {{"t_waker", {}}}});

  ThreadedExploreOptions Opts;
  Opts.MaxSteps = 64;
  ExploreResult Res = exploreThreaded(Cfg, Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Violation.find("deadlock"), std::string::npos);
}
