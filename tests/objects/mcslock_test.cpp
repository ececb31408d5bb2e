//===- tests/objects/mcslock_test.cpp - Certified MCS lock tests ----------------===//

#include "objects/McsLock.h"

#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "objects/TicketLock.h"

#include <gtest/gtest.h>

using namespace ccal;

TEST(McsReplayTest, SwapSetsTail) {
  Replayer<McsState> R = makeMcsReplayer();
  Log L = {Event(1, KindId("mcs_init")), Event(1, KindId("mcs_swap_tail"))};
  std::optional<McsState> S = R.replay(L);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Tail, 1);
  EXPECT_EQ(S->Busy.at(1), 1);
  EXPECT_EQ(S->Next.at(1), -1);
}

TEST(McsReplayTest, HandoffProtocol) {
  Log L = {
      Event(1, KindId("mcs_init")),
      Event(1, KindId("mcs_swap_tail")),
      Event(1, KindId("hold")),
      Event(2, KindId("mcs_init")),
      Event(2, KindId("mcs_swap_tail")),
      Event(2, KindId("mcs_set_next"), {1}),
      Event(1, KindId("mcs_get_next")),
      Event(1, KindId("mcs_clear_busy"), {2}),
      Event(2, KindId("mcs_get_busy")),
      Event(2, KindId("hold")),
  };
  Replayer<McsState> R = makeMcsReplayer();
  std::optional<McsState> S = R.replay(L);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Holder, 2u);
  EXPECT_EQ(S->Busy.at(2), 0);
}

TEST(McsReplayTest, CasSuccessWithoutBeingTailIsStuck) {
  Log L = {Event(1, KindId("mcs_init")), Event(1, KindId("mcs_cas_tail"), {1})};
  Replayer<McsState> R = makeMcsReplayer();
  EXPECT_FALSE(R.replay(L).has_value()); // tail is -1, not 1
}

TEST(McsReplayTest, ClearBusyByNonHolderIsStuck) {
  Log L = {Event(1, KindId("mcs_init")),
           Event(1, KindId("mcs_clear_busy"), {1})};
  Replayer<McsState> R = makeMcsReplayer();
  EXPECT_FALSE(R.replay(L).has_value());
}

TEST(McsReplayTest, DoubleHoldIsStuck) {
  Log L = {Event(1, KindId("hold")), Event(2, KindId("hold"))};
  Replayer<McsState> R = makeMcsReplayer();
  EXPECT_FALSE(R.replay(L).has_value());
}

TEST(McsLockTest, CertifiesOnTwoCpus) {
  HarnessOutcome Out = certifyMcsLock(2);
  ASSERT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
  EXPECT_TRUE(Out.Layer.valid());
  EXPECT_GT(Out.Report.ObligationsChecked, 0u);
}

TEST(McsLockTest, SharesAtomicInterfaceWithTicketLock) {
  // §6: the two locks refine the same overlay, so they are
  // interchangeable above this layer.
  McsLockLayers Mcs = makeMcsLockLayers();
  EXPECT_TRUE(Mcs.L1->provides("acq"));
  EXPECT_TRUE(Mcs.L1->provides("rel"));
  EXPECT_EQ(Mcs.L1->name(), "L1");
}

TEST(McsLockTest, BuggyReleaseIsCaught) {
  // A release that clears the successor's flag without waiting for the
  // successor to link (skipping the spin after a failed CAS) breaks the
  // handoff; the machine must get stuck or violate mutual exclusion on
  // some schedule.
  McsLockLayers Layers = makeMcsLockLayers();
  static ClightModule Broken;
  Broken = parseModuleOrDie("M1_mcs_broken", R"(
    extern void mcs_init();
    extern int mcs_swap_tail();
    extern void mcs_set_next(int prev);
    extern int mcs_get_busy();
    extern int mcs_get_next();
    extern int mcs_cas_tail();
    extern void mcs_clear_busy(int t);
    extern void hold();

    void acq() {
      mcs_init();
      int prev = mcs_swap_tail();
      if (prev != -1) {
        mcs_set_next(prev);
        while (mcs_get_busy() != 0) {}
      }
      hold();
    }

    void rel() {
      // BUG: ignores the queue and "releases" by clearing its own flag.
      mcs_clear_busy(0);
    }
  )");
  typeCheckOrDie(Broken);
  static ClightModule Client;
  Client = makeTicketClient();

  ObjectHarness H;
  H.ObjectName = "mcs_broken";
  H.Underlay = Layers.L0;
  H.Modules = {&Broken};
  H.Overlay = Layers.L1;
  H.R = Layers.R1;
  H.Client = &Client;
  H.Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  H.Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});
  H.ImplOpts.FairnessBound = 2;
  H.ImplOpts.MaxSteps = 200;
  H.ImplOpts.Invariant = mcsMutexInvariant;
  H.SpecOpts.FairnessBound = 1u << 20;
  H.SpecOpts.MaxSteps = 200;
  HarnessOutcome Out = runObjectHarness(H);
  EXPECT_FALSE(Out.Report.Holds);
  // Pinned at 1 worker (the default), where the stop point is
  // deterministic: the first violating state and the diagnostic there.
  EXPECT_EQ(Out.Report.Counterexample.substr(
                0, Out.Report.Counterexample.find('\n')),
            "implementation machine violation: step bound exceeded "
            "(divergence under fair schedules?)");
  EXPECT_EQ(Out.Report.SchedulesExplored, 2u);
  EXPECT_EQ(Out.Report.StatesExplored, 218u);
}
