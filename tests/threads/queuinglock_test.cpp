//===- tests/threads/queuinglock_test.cpp - Queuing lock tests -------------------===//

#include "threads/QueuingLock.h"

#include <gtest/gtest.h>

using namespace ccal;

TEST(QueuingLockTest, CertifiesTwoCpus) {
  QueuingLockOutcome Out = certifyQueuingLock(2, 1, 2);
  EXPECT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
  EXPECT_TRUE(Out.Cert->Valid);
  EXPECT_GT(Out.Report.ObligationsChecked, 0u);
  EXPECT_EQ(Out.Report.SchedulesExplored, 364u);
  EXPECT_EQ(Out.Report.StatesExplored, 3718u);
  EXPECT_EQ(Out.Report.ImplOutcomes, 328u);
  EXPECT_EQ(Out.Report.SpecOutcomes, 36u);
}

TEST(QueuingLockTest, CertifiesThreeCpus) {
  QueuingLockOutcome Out = certifyQueuingLock(3, 1, 1);
  EXPECT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
  EXPECT_EQ(Out.Report.SchedulesExplored, 3162u);
  EXPECT_EQ(Out.Report.StatesExplored, 27611u);
}

TEST(QueuingLockTest, SetupWiring) {
  QueuingLockSetup S = makeQueuingLockSetup(2, 1, 1);
  EXPECT_TRUE(S.Underlay->provides("acq"));
  EXPECT_TRUE(S.Underlay->provides("sleep_q"));
  EXPECT_TRUE(S.Underlay->provides("wakeup_q"));
  EXPECT_TRUE(S.Overlay->provides("acq_q"));
  EXPECT_TRUE(S.Overlay->provides("rel_q"));
  // Both acquisition paths map to the same atomic event.
  const Event AcqQ(1, KindId("acq_q")), RelQ(1, KindId("rel_q"));
  EXPECT_EQ(S.RImpl.map(Event(1, KindId("qlock_hold"))), AcqQ);
  EXPECT_EQ(S.RImpl.map(Event(1, KindId("qlock_wake_hold"))), AcqQ);
  EXPECT_EQ(S.RImpl.map(Event(1, KindId("qlock_pass"))), RelQ);
  EXPECT_FALSE(S.RImpl.map(Event(1, KindId("sleep"), {0})).has_value());
}

TEST(QueuingLockTest, SleepersActuallySleepUnderContention) {
  // Directly explore the implementation and check that on some schedule a
  // thread really sleeps (the waiting path is exercised, §5.4's point).
  QueuingLockSetup S = makeQueuingLockSetup(2, 1, 2);
  ThreadedExploreOptions Opts;
  Opts.FairnessBound = 2;
  Opts.MaxSteps = 1024;
  ExploreResult Res = exploreThreaded(S.ImplConfig, Opts);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  bool SomeoneSlept = false;
  for (const Outcome &O : Res.Outcomes)
    SomeoneSlept |= logCountKind(O.FinalLog, KindId("sleep")) > 0;
  EXPECT_TRUE(SomeoneSlept);
}

TEST(QueuingLockTest, NoSpinningEver) {
  // Unlike the ticket lock, the queuing lock never busy-waits: no
  // schedule's log contains consecutive polling reads by a waiter.  We
  // check the stronger structural fact that the only lock-state reads
  // happen under the spinlock (ql_get_busy while holding).
  QueuingLockSetup S = makeQueuingLockSetup(2, 1, 1);
  ThreadedExploreOptions Opts;
  Opts.MaxSteps = 512;
  ExploreResult Res = exploreThreaded(S.ImplConfig, Opts);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  Replayer<AbstractLockState> Spin = makeAbstractLockReplayer("acq", "rel");
  for (const Outcome &O : Res.Outcomes) {
    for (size_t I = 0; I != O.FinalLog.size(); ++I) {
      if (O.FinalLog[I].Kind != KindId("ql_get_busy"))
        continue;
      Log Prefix(O.FinalLog.begin(),
                 O.FinalLog.begin() + static_cast<std::ptrdiff_t>(I));
      std::optional<AbstractLockState> St = Spin.replay(Prefix);
      ASSERT_TRUE(St.has_value());
      EXPECT_EQ(St->Holder, O.FinalLog[I].Tid);
    }
  }
}

TEST(QueuingLockTest, HandoffIsFifo) {
  // Sleepers are woken in FIFO order: the k-th sleep's thread is the
  // k-th woken-handoff acquisition among qlock_wake_hold events.
  QueuingLockSetup S = makeQueuingLockSetup(3, 1, 1);
  ThreadedExploreOptions Opts;
  Opts.FairnessBound = 2;
  Opts.MaxSteps = 1024;
  Opts.MaxSchedules = 20000; // property sweep over a bounded prefix
  ExploreResult Res = exploreThreaded(S.ImplConfig, Opts);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  for (const Outcome &O : Res.Outcomes) {
    std::vector<ThreadId> SleepOrder, WakeHoldOrder;
    for (const Event &E : O.FinalLog) {
      if (E.Kind == KindId("sleep"))
        SleepOrder.push_back(E.Tid);
      if (E.Kind == KindId("qlock_wake_hold"))
        WakeHoldOrder.push_back(E.Tid);
    }
    EXPECT_EQ(SleepOrder, WakeHoldOrder);
  }
}
