//===- tests/objects/fold_test.cpp - Kept fold equals the fold of the log ----===//
//
// Differential guard for the shared-state fold: at every state of an
// exhaustive exploration, the fold value a machine keeps (advanced event
// by event as it appends) must equal its fold run from the initial value
// over the machine's log: the layer's fold, and on a §5 ThreadedMachine
// the config's product of it with the scheduler part.  The configurations
// cover the SC and release/acquire lock jobs on MultiCoreMachine, Thm
// 3.1's HardwareMachine, the shared queue with its push/pull cell, and the
// §5 queuing lock, monitor and Thm 5.1 scheduler layers; the state counts
// are the explorations' counts without the guard, so the guard also pins
// that the fold changes nothing about what is explored.
//
// The primitive-level controls below call each primitive that reads its
// guard from the fold on a value replayed from a short log: the illegal
// call gets stuck and the matching legal one succeeds.
//
//===----------------------------------------------------------------------===//

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "machine/HardwareMachine.h"
#include "objects/McsLock.h"
#include "objects/SharedQueue.h"
#include "objects/TicketLock.h"
#include "threads/CondVar.h"
#include "threads/Linking.h"
#include "threads/QueuingLock.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

/// The guard invariant for machines keeping the fold \p F.
template <typename MachineT>
std::function<std::string(const MachineT &)> foldGuard(SharedFold F) {
  return [F](const MachineT &M) -> std::string {
    if (M.fold() == F.replay(M.log()))
      return "";
    return "kept fold differs from the fold of the log " +
           logToString(M.log());
  };
}

struct Expected {
  std::uint64_t Schedules, States;
};

void expectGuarded(const ExploreResult &R, Expected E) {
  ASSERT_TRUE(R.Ok) << R.Violation;
  EXPECT_TRUE(R.Complete) << R.Truncation;
  EXPECT_EQ(R.SchedulesExplored, E.Schedules);
  EXPECT_EQ(R.StatesExplored, E.States);
  EXPECT_EQ(R.InvariantChecks, R.StatesExplored);
}

/// Explores both machines of a lock harness with the guard in place of
/// the harness invariant.
void guardHarness(const ObjectHarness &H, Expected Impl, Expected Spec) {
  MachineConfigPtr ImplCfg = H.implConfig(), SpecCfg = H.specConfig();
  ExploreOptions I = H.ImplOpts;
  I.Invariant = foldGuard<MultiCoreMachine>(ImplCfg->Layer->fold());
  expectGuarded(exploreMachine(ImplCfg, I), Impl);
  ExploreOptions S = H.SpecOpts;
  S.Invariant = foldGuard<MultiCoreMachine>(SpecCfg->Layer->fold());
  expectGuarded(exploreMachine(SpecCfg, S), Spec);
}

/// Explores a §5 config with the guard over the machine's product fold.
void guardThreaded(const ThreadedConfigPtr &Cfg, ThreadedExploreOptions O,
                   Expected E) {
  O.Invariant = foldGuard<ThreadedMachine>(Cfg->fold());
  expectGuarded(exploreThreaded(Cfg, O), E);
}

/// Calls primitive \p Name of \p L as \p Tid on the fold of \p Prefix.
std::optional<PrimResult> callOn(const LayerInterface &L,
                                 const std::string &Name, ThreadId Tid,
                                 std::vector<std::int64_t> Args,
                                 const Log &Prefix) {
  const Primitive *P = L.lookup(Name);
  if (!P)
    ADD_FAILURE() << "no primitive " << Name;
  const FoldValue V = L.fold().replay(Prefix);
  PrimCall Call;
  Call.Tid = Tid;
  Call.Args = std::move(Args);
  Call.Fold = &V;
  return P ? P->Sem(Call) : std::nullopt;
}

MachineConfigPtr hardwareConfig(LayerPtr Layer, const ClightModule &Client) {
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "foldguard.hw";
  Cfg->Layer = std::move(Layer);
  Cfg->Program = compileAndLink("foldguard_hw.lasm", {&Client});
  for (ThreadId C = 1; C <= 2; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

} // namespace

TEST(FoldGuardTest, TicketTwoCpus) {
  guardHarness(makeTicketLockHarness(2, 1), {328, 2533}, {2, 17});
}

TEST(FoldGuardTest, TicketOneCpuTwoRounds) {
  guardHarness(makeTicketLockHarness(1, 2), {1, 13}, {1, 9});
}

TEST(FoldGuardTest, McsTwoCpus) {
  guardHarness(makeMcsLockHarness(2, 1), {836, 7297}, {2, 17});
}

TEST(FoldGuardTest, RaTicketTwoCpus) {
  guardHarness(makeTicketLockHarnessRa(2, 1), {328, 2533}, {2, 17});
}

TEST(FoldGuardTest, RaMcsTwoCpus) {
  guardHarness(makeMcsLockHarnessRa(2, 1), {836, 7297}, {2, 17});
}

TEST(FoldGuardTest, RaTicketBrokenGrab) {
  // Stale ticket grabs: each runs FAI_t over the fold of its visible log
  // while the kept fold keeps counting the full log.
  guardHarness(makeTicketLockHarnessRa(2, 1, /*BrokenGrab=*/true),
               {1240, 5269}, {2, 17});
}

TEST(FoldGuardTest, HardwareTicks) {
  // hardware_test.cpp's two-tick link configuration: per-kind counts only.
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c2", R"(
      extern int tick();
      int t_main() { return tick() * 10 + tick(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Lx86");
  L->addShared("tick", makeFetchIncPrim("tick"));
  GenericExploreOptions<HardwareMachine> O;
  O.FairnessBound = 4;
  O.MaxSteps = 65536;
  O.Invariant = foldGuard<HardwareMachine>(L->fold());
  MachineConfigPtr Cfg = hardwareConfig(L, Client);
  expectGuarded(exploreGeneric(HardwareMachine(Cfg), O), {10530, 39645});
}

TEST(FoldGuardTest, HardwareAtomicLock) {
  // The ticket client over the atomic lock layer, instruction by
  // instruction: the lock part of the fold plus f/g counts.
  static ClightModule Client = makeTicketClient();
  LayerPtr L1 = makeTicketLockLayers().L1;
  GenericExploreOptions<HardwareMachine> O;
  O.FairnessBound = 2;
  O.MaxSteps = 65536;
  O.Invariant = foldGuard<HardwareMachine>(L1->fold());
  MachineConfigPtr Cfg = hardwareConfig(L1, Client);
  expectGuarded(exploreGeneric(HardwareMachine(Cfg), O), {5376, 60631});
}

TEST(FoldGuardTest, ThreadedQueuingLock) {
  // §5: the queuing lock's underlay (the spinlock, scheduler, busy-word
  // and marker parts plus a makeFetchIncPrim counter) and its atomic
  // overlay, whose machine adds the scheduler part to the layer's fold;
  // resched/texit events are folded too.
  QueuingLockSetup S = makeQueuingLockSetup(2, 1, 2);
  ThreadedExploreOptions O;
  O.FairnessBound = 2;
  O.MaxSteps = 1024;
  guardThreaded(S.ImplConfig, O, {328, 3525});
  guardThreaded(S.SpecConfig, O, {4, 37});
}

TEST(FoldGuardTest, SharedQueue) {
  // The impl's lock and push/pull parts, and the spec's abstract queue,
  // under certifySharedQueue's options.
  SharedQueueSetup S = makeSharedQueueSetup(1, 1, 2);
  ExploreOptions I;
  I.FairnessBound = 4;
  I.MaxSteps = 512;
  I.Invariant = foldGuard<MultiCoreMachine>(S.Underlay->fold());
  expectGuarded(exploreMachine(S.ImplConfig, I), {2, 41});
  ExploreOptions Sp;
  Sp.FairnessBound = 1u << 20;
  Sp.MaxSteps = 512;
  Sp.Invariant = foldGuard<MultiCoreMachine>(S.Overlay->fold());
  expectGuarded(exploreMachine(S.SpecConfig, Sp), {6, 19});
}

TEST(FoldGuardTest, LinkingLowAndHighSchedulers) {
  // Thm 5.1's two machines: the low cswitch replay and the high Rsched.
  LinkingSetup Setup;
  Setup.NumThreads = 2;
  Setup.Rounds = 2;
  LinkingConfigs C = makeLinkingConfigs(Setup);
  ThreadedExploreOptions O;
  O.MaxSteps = 4096;
  guardThreaded(C.Low, O, {1, 14});
  guardThreaded(C.High, O, {1, 16});
}

TEST(FoldGuardTest, MonitorLayer) {
  // The monitor's lock and scheduler parts: a waiter sleeps on the
  // condition variable until a thread of its CPU signals it.
  static ClightModule Cv = makeCondVarModule();
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("foldguard_cv", R"(
      extern void acq_q();
      extern void rel_q();
      extern void cv_wait(int q);
      extern void cv_signal(int q);
      extern void done(int v);
      int ready = 0;

      int t_waiter() {
        acq_q();
        while (ready == 0) { cv_wait(0); }
        rel_q();
        done(1);
        return 1;
      }

      int t_signaler() {
        acq_q();
        ready = 1;
        cv_signal(0);
        rel_q();
        return 0;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto Cfg = std::make_shared<ThreadedConfig>();
  Cfg->Name = "foldguard.monitor";
  Cfg->Sched.emplace(makeHighSchedReplayer({{0, 0}, {1, 0}}));
  Cfg->Layer = makeMonitorLayer(*Cfg->Sched);
  Cfg->Program = compileAndLink("foldguard_cv.lasm", {&Client, &Cv});
  Cfg->Threads.push_back({0, 0, {{"t_waiter", {}}}});
  Cfg->Threads.push_back({1, 0, {{"t_signaler", {}}}});
  ThreadedExploreOptions O;
  O.MaxSteps = 256;
  guardThreaded(Cfg, O, {1, 9});
}

TEST(FoldGuardTest, StuckPartStaysStuckAndCountsGoOn) {
  FoldPart<TicketState> Ticket(makeTicketReplayer());
  SharedFold F;
  F.declare(Ticket);
  FoldValue V = F.initial();
  ASSERT_NE(Ticket.in(V), nullptr);
  for (const Event &E : {Event(1, KindId("FAI_t")), Event(1, KindId("hold")),
                         Event(2, KindId("hold")), Event(2, KindId("FAI_t"))})
    V.advance(E);
  EXPECT_TRUE(Ticket.declaredIn(V));
  EXPECT_EQ(Ticket.in(V), nullptr); // the second hold is stuck, for good
  EXPECT_EQ(V.count(KindId("hold")), 2u);
  EXPECT_EQ(V.count(KindId("FAI_t")), 2u);
  EXPECT_EQ(V.count(KindId("inc_n")), 0u);
  EXPECT_EQ(V, F.replay({Event(1, KindId("FAI_t")), Event(1, KindId("hold")),
                         Event(2, KindId("hold")), Event(2, KindId("FAI_t"))}));
  EXPECT_NE(V, F.replay({Event(1, KindId("FAI_t")), Event(1, KindId("hold")),
                         Event(2, KindId("FAI_t"))}));
}

TEST(FoldGuardTest, MergeKeepsBothParts) {
  // Hcomp: the merged interface's fold is the product of both folds, so
  // each side's primitives still find their part.
  auto A = makeInterface("A");
  addAtomicLock(*A, "acq", "rel");
  auto B = makeInterface("B");
  addAtomicLock(*B, "acq_q", "rel_q");
  auto AB = LayerInterface::merge("AB", *A, *B);
  FoldValue V = AB->fold().replay({Event(1, KindId("acq")),
                                   Event(2, KindId("acq_q"))});
  PrimCall Call;
  Call.Tid = 2;
  Call.Fold = &V;
  // acq is held by CPU 1: CPU 2 blocks; rel_q by CPU 2 is accepted.
  std::optional<PrimResult> Acq = AB->lookup("acq")->Sem(Call);
  ASSERT_TRUE(Acq.has_value());
  EXPECT_TRUE(Acq->Blocked);
  std::optional<PrimResult> RelQ = AB->lookup("rel_q")->Sem(Call);
  ASSERT_TRUE(RelQ.has_value());
  EXPECT_FALSE(RelQ->Blocked);
  EXPECT_TRUE(AB->lookup("acq")->MayBlock);
}

TEST(FoldGuardTest, AssignmentCopiesLiveAndStuckParts) {
  // Snapshot slots copy-assign folds: a live part's state is assigned in
  // place, and a stuck (empty) part on either side takes the plain copy.
  FoldPart<TicketState> Ticket(makeTicketReplayer());
  SharedFold F;
  F.declare(Ticket);
  const KindId Fai("FAI_t"), Hold("hold"), IncN("inc_n");
  const FoldValue Live = F.replay({Event(1, Fai), Event(2, Fai),
                                   Event(1, Hold)});
  const FoldValue Other = F.replay({Event(2, Fai)});
  const FoldValue Stuck = F.replay({Event(1, Fai), Event(1, Hold),
                                    Event(2, Hold)});
  const FoldValue Initial = F.initial();
  ASSERT_NE(Ticket.in(Live), nullptr);
  ASSERT_EQ(Ticket.in(Stuck), nullptr);

  for (const FoldValue *Src : {&Live, &Other, &Stuck})
    for (const FoldValue *Held : {&Live, &Other, &Stuck, &Initial}) {
      FoldValue Slot = *Held;
      Slot = *Src;
      EXPECT_EQ(Slot, *Src);
      EXPECT_EQ(Ticket.in(Slot) == nullptr, Ticket.in(*Src) == nullptr);
      // The slot moves on by itself; its source stays put.
      FoldValue Fresh = *Src;
      const FoldValue Before = *Src;
      for (const Event &E : {Event(2, Fai), Event(1, IncN)}) {
        Slot.advance(E);
        Fresh.advance(E);
      }
      EXPECT_EQ(Slot, Fresh);
      EXPECT_EQ(*Src, Before);
    }
}

TEST(FoldGuardTest, AssignmentBetweenDifferentlyDeclaredFolds) {
  FoldPart<TicketState> Ticket(makeTicketReplayer());
  FoldPart<std::int64_t> Holds(
      Replayer<std::int64_t>(0, [](std::int64_t &N, const Event &) {
        ++N;
        return true;
      }).onlyKinds({KindId("hold")}));
  SharedFold One, Two;
  One.declare(Ticket);
  Two.declare(Ticket);
  Two.declare(Holds);
  const Log L{Event(1, KindId("FAI_t")), Event(1, KindId("hold"))};
  const FoldValue A = One.replay(L), B = Two.replay(L);

  FoldValue Slot = A;
  Slot = B;
  EXPECT_EQ(Slot, B);
  ASSERT_TRUE(Holds.declaredIn(Slot));
  EXPECT_EQ(*Holds.in(Slot), 1);
  Slot = A;
  EXPECT_EQ(Slot, A);
  EXPECT_FALSE(Holds.declaredIn(Slot));
  Slot = FoldValue();
  EXPECT_EQ(Slot, FoldValue());
  EXPECT_FALSE(Ticket.declaredIn(Slot));
  Slot = B;
  EXPECT_EQ(Slot, B);
}

TEST(PrimGuardTest, HighSchedulerPrimsNeedTheCurrentThread) {
  auto L = makeInterface("Lhtd_guard");
  installHighSchedPrims(*L, {{0, 0}, {1, 0}});
  const Log Running = {Event(0, ReschedEventKind)}; // thread 0 is current
  for (const char *Name : {"yield", "sleep", "thread_exit"}) {
    std::vector<std::int64_t> Args;
    if (std::string(Name) == "sleep")
      Args = {5};
    EXPECT_FALSE(callOn(*L, Name, 1, Args, Running).has_value()) << Name;
    EXPECT_FALSE(callOn(*L, Name, 0, Args, {}).has_value()) << Name;
    std::optional<PrimResult> Ok = callOn(*L, Name, 0, Args, Running);
    ASSERT_TRUE(Ok.has_value()) << Name;
    ASSERT_EQ(Ok->Events.size(), 1u);
    EXPECT_EQ(Ok->Events[0].Kind, Name == std::string("thread_exit")
                                      ? ThreadExitEventKind
                                      : KindId(Name));
  }
}

TEST(PrimGuardTest, QueuingLockPrimsNeedTheSpinlock) {
  QueuingLockSetup S = makeQueuingLockSetup(2, 1, 1);
  const LayerInterface &L = *S.Underlay;
  const Log Held = {Event(0, KindId("acq"))}; // thread 0 holds the spinlock
  EXPECT_FALSE(callOn(L, "sleep_q", 1, {}, Held).has_value());
  EXPECT_FALSE(callOn(L, "ql_get_busy", 1, {}, Held).has_value());
  EXPECT_FALSE(callOn(L, "ql_set_busy", 1, {1}, Held).has_value());
  EXPECT_FALSE(callOn(L, "ql_get_busy", 0, {}, {}).has_value());

  std::optional<PrimResult> Sleep = callOn(L, "sleep_q", 0, {}, Held);
  ASSERT_TRUE(Sleep.has_value());
  EXPECT_EQ(Sleep->Events, (std::vector<Event>{Event(0, KindId("rel")),
                                              Event(0, KindId("sleep"), {0})}));
  std::optional<PrimResult> Get = callOn(L, "ql_get_busy", 0, {}, Held);
  ASSERT_TRUE(Get.has_value());
  EXPECT_EQ(Get->Ret, -1);
  // The busy word is the last ql_set_busy's argument.
  Log Set = Held;
  Set.push_back(Event(0, KindId("ql_set_busy"), {1}));
  Get = callOn(L, "ql_get_busy", 0, {}, Set);
  ASSERT_TRUE(Get.has_value());
  EXPECT_EQ(Get->Ret, 1);
  EXPECT_TRUE(callOn(L, "ql_set_busy", 0, {1}, Held).has_value());
}

TEST(PrimGuardTest, CvSleepNeedsTheMonitor) {
  LayerPtr L = makeMonitorLayer(
      FoldPart<SchedState>(makeHighSchedReplayer({{0, 0}, {1, 0}})));
  const Log Held = {Event(0, KindId("acq_q"))};
  EXPECT_FALSE(callOn(*L, "cv_sleep", 1, {3}, Held).has_value());
  std::optional<PrimResult> Ok = callOn(*L, "cv_sleep", 0, {3}, Held);
  ASSERT_TRUE(Ok.has_value());
  EXPECT_EQ(Ok->Events, (std::vector<Event>{Event(0, KindId("rel_q")),
                                           Event(0, KindId("sleep"), {3})}));
}

TEST(PrimGuardTest, CswitchOverAStuckLowSchedulerGetsStuck) {
  auto L = makeInterface("Lbtd_guard");
  installLowSchedPrims(*L, {{0, 0}, {1, 0}});
  // Thread 1 switched away while CPU 0 was idle: the low replay is stuck.
  const Log Stuck = {Event(1, KindId("cswitch"), {0})};
  EXPECT_FALSE(callOn(*L, "cswitch", 0, {1}, Stuck).has_value());
  std::optional<PrimResult> Ok =
      callOn(*L, "cswitch", 0, {1}, {Event(0, ReschedEventKind)});
  ASSERT_TRUE(Ok.has_value());
  EXPECT_EQ(Ok->Events,
            (std::vector<Event>{Event(0, KindId("cswitch"), {1})}));
}
