//===- tests/objects/fold_test.cpp - Kept fold equals the fold of the log ----===//
//
// Differential guard for the shared-state fold: at every state of an
// exhaustive exploration, the fold value a machine keeps (advanced event
// by event as it appends) must equal its layer's fold run from the
// initial value over the machine's log.  The configurations cover the
// SC and release/acquire lock jobs on MultiCoreMachine, Thm 3.1's
// HardwareMachine and a §5 ThreadedMachine; the state counts are the
// explorations' counts without the guard, so the guard also pins that the
// fold changes nothing about what is explored.
//
//===----------------------------------------------------------------------===//

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "machine/HardwareMachine.h"
#include "objects/McsLock.h"
#include "objects/TicketLock.h"
#include "threads/QueuingLock.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

/// The guard invariant for machines over \p Layer.
template <typename MachineT>
std::function<std::string(const MachineT &)> foldGuard(LayerPtr Layer) {
  return [Layer](const MachineT &M) -> std::string {
    if (M.fold() == Layer->fold().replay(M.log()))
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
  I.Invariant = foldGuard<MultiCoreMachine>(ImplCfg->Layer);
  expectGuarded(exploreMachine(ImplCfg, I), Impl);
  ExploreOptions S = H.SpecOpts;
  S.Invariant = foldGuard<MultiCoreMachine>(SpecCfg->Layer);
  expectGuarded(exploreMachine(SpecCfg, S), Spec);
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
  O.Invariant = foldGuard<HardwareMachine>(L);
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
  O.Invariant = foldGuard<HardwareMachine>(L1);
  MachineConfigPtr Cfg = hardwareConfig(L1, Client);
  expectGuarded(exploreGeneric(HardwareMachine(Cfg), O), {5376, 60631});
}

TEST(FoldGuardTest, ThreadedQueuingLock) {
  // §5: the queuing lock's underlay (addAtomicLock plus a makeFetchIncPrim
  // counter) and its atomic overlay, with resched/texit events folded too.
  QueuingLockSetup S = makeQueuingLockSetup(2, 1, 2);
  ThreadedExploreOptions O;
  O.FairnessBound = 2;
  O.MaxSteps = 1024;
  O.Invariant = foldGuard<ThreadedMachine>(S.Underlay);
  expectGuarded(exploreThreaded(S.ImplConfig, O), {328, 3525});
  O.Invariant = foldGuard<ThreadedMachine>(S.Overlay);
  expectGuarded(exploreThreaded(S.SpecConfig, O), {4, 37});
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
