//===- tests/objects/ticketlock_test.cpp - Certified ticket lock tests ----------===//

#include "objects/TicketLock.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "tests/common/concurrent_calls.h"

#include <gtest/gtest.h>

using namespace ccal;

TEST(TicketReplayTest, TracksCountersAndHolder) {
  Replayer<TicketState> R = makeTicketReplayer();
  Log L = {Event(1, KindId("FAI_t")), Event(2, KindId("FAI_t")),
           Event(1, KindId("hold"))};
  std::optional<TicketState> S = R.replay(L);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->NextTicket, 2);
  EXPECT_EQ(S->NowServing, 0);
  EXPECT_EQ(S->Holder, 1u);
}

TEST(TicketReplayTest, DoubleHoldIsStuck) {
  Replayer<TicketState> R = makeTicketReplayer();
  Log L = {Event(1, KindId("hold")), Event(2, KindId("hold"))};
  EXPECT_FALSE(R.replay(L).has_value());
}

TEST(TicketReplayTest, ReleaseByNonHolderIsStuck) {
  Replayer<TicketState> R = makeTicketReplayer();
  Log L = {Event(1, KindId("hold")), Event(2, KindId("inc_n"))};
  EXPECT_FALSE(R.replay(L).has_value());
}

TEST(TicketReplayTest, FifoOrderChecked) {
  Log Good = {Event(1, KindId("FAI_t")), Event(2, KindId("FAI_t")),
              Event(1, KindId("hold")), Event(1, KindId("inc_n")),
              Event(2, KindId("hold"))};
  EXPECT_EQ(checkTicketFifo(Good), "");
  Log Bad = {Event(1, KindId("FAI_t")), Event(2, KindId("FAI_t")),
             Event(2, KindId("hold"))};
  EXPECT_NE(checkTicketFifo(Bad), "");
}

TEST(TicketLockTest, CertifiesOnTwoCpus) {
  HarnessOutcome Out = certifyTicketLock(2);
  ASSERT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
  EXPECT_TRUE(Out.Layer.valid());
  EXPECT_GT(Out.Report.ObligationsChecked, 0u);
  EXPECT_GT(Out.Report.SchedulesExplored, 2u);
  EXPECT_EQ(Out.Layer.Cert->Rule, "LogLift");
  EXPECT_EQ(Out.Layer.Relation, "R1");
}

TEST(TicketLockTest, CertifiesTwoRoundsSingleCpu) {
  // Re-acquisition across rounds: the replayed counters must keep working
  // after release (single CPU keeps the schedule space small; the
  // concurrent case is covered by CertifiesOnTwoCpus).
  HarnessOutcome Out = certifyTicketLock(1, /*Rounds=*/2);
  ASSERT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
}

namespace {

/// A lock that skips the spin loop (acquires immediately) over the real
/// L0, checked against the real L1 with the ticket invariant.
ObjectHarness makeSpinlessTicketHarness() {
  TicketLockLayers Layers = makeTicketLockLayers();
  static ClightModule Broken;
  Broken = parseModuleOrDie("M1_broken", R"(
    extern int FAI_t();
    extern int get_n();
    extern void inc_n();
    extern void hold();
    void acq() {
      int my_t = FAI_t();
      hold();
    }
    void rel() { inc_n(); }
  )");
  typeCheckOrDie(Broken);
  static ClightModule Client;
  Client = makeTicketClient();

  ObjectHarness H;
  H.ObjectName = "broken_lock";
  H.Underlay = Layers.L0;
  H.Modules = {&Broken};
  H.Overlay = Layers.L1;
  H.R = Layers.R1;
  H.Client = &Client;
  H.Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  H.Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});
  H.ImplOpts.FairnessBound = 2;
  H.ImplOpts.MaxSteps = 256;
  H.ImplOpts.Invariant = ticketMutexInvariant;
  H.SpecOpts.FairnessBound = 1u << 20;
  H.SpecOpts.MaxSteps = 256;
  return H;
}

} // namespace

TEST(TicketLockTest, BuggyLockIsCaught) {
  // The spin-less lock violates mutual exclusion and the checker must
  // find it.  Pinned at 1 worker (the default), where the stop point is
  // deterministic: the first violating state and the diagnostic there.
  HarnessOutcome Out = runObjectHarness(makeSpinlessTicketHarness());
  EXPECT_FALSE(Out.Report.Holds);
  EXPECT_EQ(Out.Report.Counterexample.substr(
                0, Out.Report.Counterexample.find('\n')),
            "implementation machine violation: invariant violated: ticket "
            "replay stuck: mutual exclusion or release protocol violated");
  EXPECT_EQ(Out.Report.SchedulesExplored, 2u);
  EXPECT_EQ(Out.Report.StatesExplored, 24u);
}

TEST(TicketLockTest, FifoViolationThroughTheMachine) {
  // CPU 1 fetches ticket 0, CPU 2 ticket 1, and CPU 2 — not spinning —
  // acquires first: mutual exclusion holds, FIFO handout does not.
  ObjectHarness H = makeSpinlessTicketHarness();
  MachineConfigPtr Cfg = H.implConfig();
  MultiCoreMachine M(Cfg);
  ASSERT_EQ(M.pendingPrim(1), "FAI_t");
  ASSERT_TRUE(M.step(1)) << M.error();
  ASSERT_EQ(M.pendingPrim(2), "FAI_t");
  ASSERT_TRUE(M.step(2)) << M.error();
  ASSERT_EQ(M.pendingPrim(2), "hold");
  ASSERT_TRUE(M.step(2)) << M.error();
  EXPECT_EQ(ticketMutexInvariant(M),
            "FIFO violated: ticket 0 belongs to CPU 1 but CPU 2 acquired");
}

TEST(TicketLockTest, RefutedReportsCountTheOutcomesReachedBeforeTheStop) {
  // On a refuted run ImplOutcomes counts the distinct outcomes handed to
  // the matcher before the exploration stopped, the rejected one
  // included, and ObligationsChecked the accepted ones; a machine
  // violation rejects no outcome.  Pinned at 1 worker, where the stop
  // point is deterministic.
  HarnessOutcome Unmatched =
      runObjectHarness(makeTicketLockHarnessRa(2, 1, /*BrokenGrab=*/true));
  ASSERT_FALSE(Unmatched.Report.Holds);
  EXPECT_NE(Unmatched.Report.Counterexample.find("no specification behavior"),
            std::string::npos)
      << Unmatched.Report.Counterexample;
  EXPECT_EQ(Unmatched.Report.ImplOutcomes, 46u);
  EXPECT_EQ(Unmatched.Report.ObligationsChecked, 45u);
  EXPECT_EQ(Unmatched.Report.SchedulesExplored, 48u);

  // Three spinning CPUs overrun a lowered step bound after 1,079
  // outcomes (87,479 at the harness's own bound of 512).
  ObjectHarness H = makeTicketLockHarness(3, 1);
  H.ImplOpts.MaxSteps = 32;
  HarnessOutcome StepBound = runObjectHarness(H);
  ASSERT_FALSE(StepBound.Report.Holds);
  EXPECT_NE(StepBound.Report.Counterexample.find("step bound exceeded"),
            std::string::npos)
      << StepBound.Report.Counterexample;
  EXPECT_EQ(StepBound.Report.ImplOutcomes, 1079u);
  EXPECT_EQ(StepBound.Report.ObligationsChecked, 1079u);
  EXPECT_EQ(StepBound.Report.SchedulesExplored, 1085u);
}

TEST(TicketLockTest, UnfairnessWouldStarve) {
  // Without the FIFO discipline, a non-ticket "test-and-set-like" lock
  // can acquire out of ticket order; the FIFO whole-log check rejects it.
  Log OutOfOrder = {Event(1, KindId("FAI_t")), Event(2, KindId("FAI_t")),
                    Event(2, KindId("hold")), Event(2, KindId("inc_n")),
                    Event(1, KindId("hold"))};
  EXPECT_NE(checkTicketFifo(OutOfOrder), "");
}

TEST(TicketLockTest, LayerPiecesAreWellFormed) {
  TicketLockLayers Layers = makeTicketLockLayers();
  EXPECT_TRUE(Layers.L0->provides("FAI_t"));
  EXPECT_TRUE(Layers.L0->provides("get_n"));
  EXPECT_TRUE(Layers.L1->provides("acq"));
  EXPECT_TRUE(Layers.L1->provides("rel"));
  EXPECT_FALSE(Layers.L1->provides("FAI_t")); // hidden by the layer
  EXPECT_EQ(Layers.M1.definedFuncs(),
            (std::vector<std::string>{"acq", "rel"}));
}

TEST(TicketLockTest, StarvationFreedomBoundHolds) {
  // §4.1: "the while-loop in acq terminates in n x m x #CPU steps" — the
  // executable form measures the worst wait over every fair schedule.
  StarvationReport Rep =
      checkTicketStarvationFreedom(/*NumCpus=*/2, /*FairnessBound=*/2);
  ASSERT_TRUE(Rep.Ok) << Rep.Violation;
  EXPECT_TRUE(Rep.WithinBound)
      << "worst wait " << Rep.WorstWait << " exceeds " << Rep.Bound;
  EXPECT_GT(Rep.WorstWait, 0u); // some schedule really made a CPU wait
}

TEST(TicketLockTest, StarvationBoundScalesWithFairness) {
  StarvationReport Tight =
      checkTicketStarvationFreedom(/*NumCpus=*/2, /*FairnessBound=*/1);
  StarvationReport Loose =
      checkTicketStarvationFreedom(/*NumCpus=*/2, /*FairnessBound=*/3);
  ASSERT_TRUE(Tight.Ok && Loose.Ok);
  EXPECT_LE(Tight.WorstWait, Loose.WorstWait);
  EXPECT_TRUE(Tight.WithinBound);
  EXPECT_TRUE(Loose.WithinBound);
}

TEST(TicketLockTest, StarvationCheckIsSafeToCallConcurrently) {
  StarvationReport Seq = checkTicketStarvationFreedom(2, 1);
  ASSERT_TRUE(Seq.Ok) << Seq.Violation;
  for (const StarvationReport &Rep : test::callOnTwoThreads(
           [] { return checkTicketStarvationFreedom(2, 1); }, 200)) {
    EXPECT_EQ(Rep.Ok, Seq.Ok);
    EXPECT_EQ(Rep.Violation, Seq.Violation);
    EXPECT_EQ(Rep.WorstWait, Seq.WorstWait);
    EXPECT_EQ(Rep.Bound, Seq.Bound);
    EXPECT_EQ(Rep.SchedulesExplored, Seq.SchedulesExplored);
  }
}

TEST(TicketLockTest, HarnessStatsPopulated) {
  HarnessOutcome Out = certifyTicketLock(2);
  EXPECT_GT(Out.ImplLoC, 5u);
  EXPECT_GE(Out.SpecPrimCount, 4u);
}

TEST(TicketLockTest, CompatCheckedOnExploredCorpus) {
  // Pcomp's Compat side condition (Fig. 9), discharged on *real* logs:
  // the corpus gathered while exploring the implementation machine,
  // mapped to the overlay's vocabulary through R1, must satisfy the
  // guarantee-implies-rely implications of L1 for both focus sets.
  TicketLockLayers Layers = makeTicketLockLayers();
  ObjectHarness H = makeTicketLockHarness(2);
  HarnessOutcome Out = runObjectHarness(H);
  ASSERT_TRUE(Out.Report.Holds);
  ExploreOptions Opts = H.ImplOpts;
  Opts.CollectCorpus = true;
  ExploreResult Impl = exploreMachine(H.implConfig(), Opts);
  ASSERT_TRUE(Impl.Ok) << Impl.Violation;
  ASSERT_FALSE(Impl.Corpus.empty());

  std::vector<Log> Corpus;
  for (const Log &L : Impl.Corpus)
    Corpus.push_back(Layers.R1.apply(L));

  calculus::CompatReport Compat =
      calculus::checkCompat(*Layers.L1, {1}, {2}, Corpus);
  EXPECT_TRUE(Compat.Holds);
  EXPECT_GT(Compat.LogsChecked, 0u);
  CertPtr C = Compat.cert("L1");
  EXPECT_TRUE(C->Valid);
  EXPECT_EQ(C->Rule, "Compat");
}
