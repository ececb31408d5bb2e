//===- tests/threads/threadlocal_test.cpp - §5.3 thread-local interfaces --------===//
//
// The thread-local layer interface (§5.3): when a single thread is
// focused, scheduling primitives "always end up switching back to the same
// thread; they do not modify the kernel context and effectively act as a
// 'no-op', except that the shared log gets updated."
//
// Executable form: for a thread whose computation touches only its own
// locals, (a) its projected event sequence and return value are identical
// across every schedule of the multithreaded machine, and (b) they equal
// a solo run in which yield is replaced by a literal no-op primitive.
//
//===----------------------------------------------------------------------===//

#include "threads/Sched.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

const char *const WorkerSrc = R"(
  extern void yield();
  extern void done(int v);

  int t_worker(int seed) {
    int acc = seed;
    int i = 0;
    while (i < 3) {
      acc = acc * 7 + i;
      yield();
      i = i + 1;
    }
    done(acc);
    return acc;
  }
)";

ThreadedConfigPtr makeMultiConfig(unsigned Threads) {
  static ClightModule Client;
  Client = parseModuleOrDie("tl_client", WorkerSrc);
  typeCheckOrDie(Client);

  std::map<ThreadId, ThreadId> CpuOf;
  for (ThreadId T = 0; T != Threads; ++T)
    CpuOf.emplace(T, 0);

  auto L = makeInterface("Lhtd_tl");
  FoldPart<SchedState> Sched = installHighSchedPrims(*L, CpuOf);
  L->addShared("done", makeEventPrim("done"));

  auto Cfg = std::make_shared<ThreadedConfig>();
  Cfg->Name = "threadlocal";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("tl.lasm", {&Client});
  Cfg->Sched = Sched;
  for (ThreadId T = 0; T != Threads; ++T)
    Cfg->Threads.push_back(
        {T, 0, {{"t_worker", {static_cast<std::int64_t>(T + 10)}}}});
  return Cfg;
}

/// Projects the log onto thread \p T, dropping machine-internal and
/// scheduling events — the thread-local view.
Log projectOwn(const Log &L, ThreadId T) {
  Log Out;
  for (const Event &E : L) {
    if (E.Tid != T)
      continue;
    if (E.Kind == KindId("yield") || E.Kind == ThreadExitEventKind ||
        E.Kind == ReschedEventKind)
      continue;
    Out.push_back(E);
  }
  return Out;
}

} // namespace

TEST(ThreadLocalTest, ProjectionIsScheduleInvariant) {
  ThreadedExploreOptions Opts;
  Opts.MaxSteps = 1024;
  ExploreResult Res = exploreThreaded(makeMultiConfig(3), Opts);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  ASSERT_FALSE(Res.Outcomes.empty());
  // Every schedule yields the same per-thread projection and returns.
  for (ThreadId T = 0; T != 3; ++T) {
    Log First = projectOwn(Res.Outcomes[0].FinalLog, T);
    for (const Outcome &O : Res.Outcomes) {
      EXPECT_EQ(projectOwn(O.FinalLog, T), First);
      EXPECT_EQ(O.Returns.at(T), Res.Outcomes[0].Returns.at(T));
    }
  }
}

TEST(ThreadLocalTest, YieldActsAsNoOpForTheFocusedThread) {
  // Multi-thread run vs a solo machine where yield is a pure no-op
  // primitive: thread 0's projection and return must coincide (§5.3's
  // "effectively act as a no-op").
  ThreadedExploreOptions Opts;
  Opts.MaxSteps = 1024;
  ExploreResult Multi = exploreThreaded(makeMultiConfig(2), Opts);
  ASSERT_TRUE(Multi.Ok) << Multi.Violation;

  static ClightModule Client;
  Client = parseModuleOrDie("tl_solo", WorkerSrc);
  typeCheckOrDie(Client);
  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}};
  auto L = makeInterface("Lsolo");
  // yield: a no-op that only asks the environment (here: nothing).
  L->addPrivate("yield", makeConstPrim(0));
  L->addShared("done", makeEventPrim("done"));
  auto Solo = std::make_shared<ThreadedConfig>();
  Solo->Name = "solo";
  Solo->Layer = L;
  Solo->Program = compileAndLink("tl_solo.lasm", {&Client});
  Solo->Sched.emplace(makeHighSchedReplayer(CpuOf));
  Solo->Threads.push_back({0, 0, {{"t_worker", {10}}}});
  ExploreResult SoloRes = exploreThreaded(Solo, Opts);
  ASSERT_TRUE(SoloRes.Ok) << SoloRes.Violation;
  ASSERT_EQ(SoloRes.Outcomes.size(), 1u);

  for (const Outcome &O : Multi.Outcomes) {
    EXPECT_EQ(projectOwn(O.FinalLog, 0),
              projectOwn(SoloRes.Outcomes[0].FinalLog, 0));
    EXPECT_EQ(O.Returns.at(0), SoloRes.Outcomes[0].Returns.at(0));
  }
}
