//===- tests/objects/ralock_test.cpp - Locks under release/acquire memory -------===//
//
// Re-verification of the runtime locks under MemoryModel::Ra: the
// correctly annotated ticket and MCS locks must still certify against the
// same atomic overlay L1, while the broken ticket lock's model twin — the
// torn relaxed ticket grab of rt::BrokenTicketLock — must be *refuted by
// exploration alone*, with a concrete duplicate-ticket counterexample.

#include "objects/McsLock.h"
#include "objects/TicketLock.h"

#include "machine/MemoryModel.h"

#include <gtest/gtest.h>

using namespace ccal;

TEST(RaTicketLockTest, CertifiesOnTwoCpus) {
  HarnessOutcome Out = certifyTicketLockRa(2);
  ASSERT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
  EXPECT_TRUE(Out.Layer.valid());
  EXPECT_GT(Out.Report.ObligationsChecked, 0u);
  EXPECT_EQ(Out.Layer.Cert->Rule, "LogLift");
}

TEST(RaTicketLockTest, SameOutcomesAsScOnTwoCpus) {
  // The annotated lock's synchronization collapses every reads-from menu
  // back to the latest write, so the RA implementation machine admits
  // exactly the SC outcome set — the refinement is not weakened, just
  // re-established against a strictly larger candidate space.
  ObjectHarness ScH = makeTicketLockHarness(2);
  ObjectHarness RaH = makeTicketLockHarnessRa(2);
  ExploreResult Sc = exploreMachine(ScH.implConfig(), ScH.ImplOpts);
  ExploreResult Ra = exploreMachine(RaH.implConfig(), RaH.ImplOpts);
  ASSERT_TRUE(Sc.Ok) << Sc.Violation;
  ASSERT_TRUE(Ra.Ok) << Ra.Violation;
  ASSERT_EQ(Sc.Outcomes.size(), Ra.Outcomes.size());
  OutcomeSet ScSet;
  for (const Outcome &O : Sc.Outcomes)
    ScSet.insert(O);
  for (const Outcome &O : Ra.Outcomes)
    EXPECT_FALSE(ScSet.insert(O)) << "RA-only outcome under the "
                                     "correctly annotated lock";
}

TEST(RaTicketLockTest, BrokenGrabIsRefutedByExploration) {
  // rt::BrokenTicketLock's model twin: the ticket grab demoted to a torn
  // relaxed load/store pair.  Under MemoryModel::Ra the stale ticket read
  // is an enumerable reads-from choice, so some exploration branch hands
  // the same ticket to both CPUs, both pass the now-serving gate, and the
  // double hold wedges the ticket replay — the "ticket.mutex" invariant
  // must refute the refinement without any external oracle.
  HarnessOutcome Out = certifyTicketLockRa(2, 1, /*BrokenGrab=*/true);
  ASSERT_FALSE(Out.Report.Holds);
  EXPECT_FALSE(Out.Layer.valid());
  // The counterexample is concrete: it carries an implementation log in
  // which the torn grab handed out a stale ticket.  (Whether DFS first
  // hits the double-hold invariant or a stale-counter refinement mismatch
  // depends on exploration order; both are weak-memory counterexamples.)
  EXPECT_NE(Out.Report.Counterexample.find("FAI_t"), std::string::npos)
      << Out.Report.Counterexample;
}

TEST(RaTicketLockTest, BrokenGrabReachesDoubleHold) {
  // The duplicate-ticket double hold specifically: explore the broken
  // implementation machine with only the mutual-exclusion invariant armed
  // (no refinement comparison to trip first).  Some branch must hand the
  // same ticket to both CPUs, pass both through the now-serving gate, and
  // wedge the ticket replay on the second hold.
  ObjectHarness H = makeTicketLockHarnessRa(2, 1, /*BrokenGrab=*/true);
  ExploreResult Res = exploreMachine(H.implConfig(), H.ImplOpts);
  ASSERT_FALSE(Res.Ok);
  EXPECT_NE(Res.Violation.find("invariant violated"), std::string::npos)
      << Res.Violation;
  // The violating log is part of the diagnostic and shows both grabs.
  EXPECT_NE(Res.Violation.find("1.FAI_t"), std::string::npos)
      << Res.Violation;
  EXPECT_NE(Res.Violation.find("2.FAI_t"), std::string::npos)
      << Res.Violation;
}

TEST(RaTicketLockTest, BrokenGrabStillPassesUnderScMemory) {
  // Control: the same torn-grab layers explored under MemoryModel::Sc
  // (where a read always sees the latest write) show no violation — the
  // bug is a weak-memory bug, only visible once stale reads are
  // enumerated.  This is exactly why the RA backend exists.
  ObjectHarness H = makeTicketLockHarnessRa(2, 1, /*BrokenGrab=*/true);
  H.ImplModel = MemoryModel::Sc;
  HarnessOutcome Out = runObjectHarness(H);
  EXPECT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
}

TEST(RaMcsLockTest, CertifiesOnTwoCpus) {
  HarnessOutcome Out = certifyMcsLockRa(2);
  ASSERT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
  EXPECT_TRUE(Out.Layer.valid());
  EXPECT_GT(Out.Report.ObligationsChecked, 0u);
}

TEST(RaMcsLockTest, RefinesSameOverlayAsTicket) {
  // §6's interchangeability survives the memory-model change: both RA
  // locks certify against the *same* L1, so higher layers keep their
  // proofs whichever lock (and whichever memory model) sits below.
  HarnessOutcome Ticket = certifyTicketLockRa(2);
  HarnessOutcome Mcs = certifyMcsLockRa(2);
  ASSERT_TRUE(Ticket.Report.Holds) << Ticket.Report.Counterexample;
  ASSERT_TRUE(Mcs.Report.Holds) << Mcs.Report.Counterexample;
  ASSERT_TRUE(Ticket.Layer.Overlay && Mcs.Layer.Overlay);
  EXPECT_EQ(Ticket.Layer.Overlay->name(), Mcs.Layer.Overlay->name());
}
