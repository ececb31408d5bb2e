//===- tests/machine/explorer_test.cpp - Schedule enumeration tests -------------===//

#include "machine/Explorer.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "machine/Soundness.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace ccal;

namespace {

/// Client: each CPU performs K shared ticks and returns the accumulated
/// tick values.  \p Tick is the tick primitive's semantics.
MachineConfigPtr makeTickConfig(unsigned Cpus, unsigned Ticks,
                                PrimSemantics Tick = makeFetchIncPrim("tick")) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int tick();
      int t_main(int k) {
        int acc = 0;
        int i = 0;
        while (i < k) {
          acc = acc * 10 + tick();
          i = i + 1;
        }
        return acc;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Ltick");
  L->addShared("tick", std::move(Tick));
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "tick";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("tick.lasm", {&Client});
  for (ThreadId C = 1; C <= Cpus; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{
                             {"t_main", {static_cast<std::int64_t>(Ticks)}}});
  return Cfg;
}

} // namespace

TEST(ExplorerTest, EnumeratesAllInterleavings) {
  // 2 CPUs x 2 ticks: C(4,2) = 6 interleavings, each a distinct outcome.
  ExploreOptions Opts;
  ExploreResult Res = exploreMachine(makeTickConfig(2, 2), Opts);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_TRUE(Res.Complete);
  EXPECT_EQ(Res.SchedulesExplored, 6u);
  EXPECT_EQ(Res.Outcomes.size(), 6u);
  // Every outcome log has exactly 4 tick events.
  for (const Outcome &O : Res.Outcomes)
    EXPECT_EQ(O.FinalLog.size(), 4u);
}

TEST(ExplorerTest, ThreeCpusCountMatchesMultinomial) {
  // 3 CPUs x 1 tick each: 3! = 6 schedules.
  ExploreOptions Opts;
  ExploreResult Res = exploreMachine(makeTickConfig(3, 1), Opts);
  ASSERT_TRUE(Res.Ok);
  EXPECT_EQ(Res.SchedulesExplored, 6u);
}

TEST(ExplorerTest, FairnessBoundPrunesRuns) {
  ExploreOptions Strict;
  Strict.FairnessBound = 1;
  ExploreResult A = exploreMachine(makeTickConfig(2, 3), Strict);
  ExploreOptions Loose;
  Loose.FairnessBound = 8;
  ExploreResult B = exploreMachine(makeTickConfig(2, 3), Loose);
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_LT(A.SchedulesExplored, B.SchedulesExplored);
}

TEST(ExplorerTest, InvariantViolationIsReported) {
  ExploreOptions Opts;
  Opts.Invariant = [](const MultiCoreMachine &M) -> std::string {
    if (logCountKind(M.log(), KindId("tick")) >= 3)
      return "too many ticks";
    return "";
  };
  ExploreResult Res = exploreMachine(makeTickConfig(2, 2), Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Violation.find("too many ticks"), std::string::npos);
}

TEST(ExplorerTest, ScheduleBudgetMarksIncomplete) {
  for (unsigned Threads : {1u, 2u, 4u}) {
    ExploreOptions Opts;
    Opts.MaxSchedules = 2;
    Opts.Threads = Threads;
    ExploreResult Res = exploreMachine(makeTickConfig(2, 2), Opts);
    EXPECT_TRUE(Res.Ok) << Threads;
    EXPECT_FALSE(Res.Complete) << Threads;
  }
}

TEST(PorTest, ExplorerTruncationNamesTheBudget) {
  for (unsigned Threads : {1u, 2u, 4u}) {
    ExploreOptions Opts;
    Opts.MaxSchedules = 1;
    Opts.Threads = Threads;
    ExploreResult Res = exploreMachine(makeTickConfig(2, 1), Opts);
    ASSERT_TRUE(Res.Ok) << Threads;
    EXPECT_FALSE(Res.Complete) << Threads;
    EXPECT_NE(Res.Truncation.find("MaxSchedules"), std::string::npos)
        << Threads << ": " << Res.Truncation;
  }
}

TEST(ExplorerTest, BudgetOfExactlyTheTreeCompletes) {
  // 3 CPUs x 3 ticks: 1,680 schedules, so several workers add theirs to
  // the shared count in full batches of 32 as well as when they run dry.
  // A run that explored more than the budget is truncated whenever its
  // workers noticed, and one worker never explores past it.
  MachineConfigPtr Cfg = makeTickConfig(3, 3);
  for (unsigned Threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(Threads);
    ExploreOptions Opts;
    Opts.Threads = Threads;
    Opts.MaxSchedules = 1680;
    ExploreResult Exact = exploreMachine(Cfg, Opts);
    ASSERT_TRUE(Exact.Ok) << Exact.Violation;
    EXPECT_TRUE(Exact.Complete) << Exact.Truncation;
    EXPECT_EQ(Exact.SchedulesExplored, 1680u);
    EXPECT_EQ(Exact.StatesExplored, 5248u);

    Opts.MaxSchedules = 1679;
    ExploreResult Short = exploreMachine(Cfg, Opts);
    ASSERT_TRUE(Short.Ok) << Short.Violation;
    EXPECT_FALSE(Short.Complete);
    EXPECT_EQ(Short.Truncation, "MaxSchedules budget (1679) exhausted");
  }
  for (std::uint64_t Budget : {1u, 7u, 100u, 1679u}) {
    ExploreOptions Opts;
    Opts.MaxSchedules = Budget;
    ExploreResult Res = exploreMachine(Cfg, Opts);
    EXPECT_FALSE(Res.Complete) << Budget;
    EXPECT_EQ(Res.SchedulesExplored, Budget);
  }
}

TEST(ExplorerTest, LastChildStepsInItsParentsFrame) {
  // One CPU is a chain: every child is its parent's last, so one worker
  // holds a single frame however long the chain is.
  for (unsigned Ticks : {1u, 3u, 5u}) {
    ExploreResult Res = exploreMachine(makeTickConfig(1, Ticks), {});
    ASSERT_TRUE(Res.Ok) << Res.Violation;
    EXPECT_EQ(Res.SchedulesExplored, 1u);
    EXPECT_EQ(Res.StatesExplored, Ticks + 1u);
    EXPECT_EQ(Res.MaxLogLen, Ticks);
    EXPECT_EQ(Res.WorkerMaxStack, std::vector<std::uint64_t>{1}) << Ticks;
  }
  // Counters pinned from the search that pushed every child.
  for (unsigned Threads : {1u, 2u, 4u}) {
    ExploreOptions Opts;
    Opts.Threads = Threads;
    ExploreResult Res = exploreMachine(makeTickConfig(2, 2), Opts);
    ASSERT_TRUE(Res.Ok) << Res.Violation;
    EXPECT_EQ(Res.SchedulesExplored, 6u) << Threads;
    EXPECT_EQ(Res.StatesExplored, 19u) << Threads;
    EXPECT_EQ(Res.MaxLogLen, 4u) << Threads;
    EXPECT_EQ(Res.Outcomes.size(), 6u) << Threads;
  }
}

TEST(ExplorerTest, FairnessSkippedSiblingLeavesTheParentsMenu) {
  // At FairnessBound 1 two CPUs strictly alternate: below the root every
  // node offers two candidates, one of which fairness forbids, so the
  // other is the node's last child and steps in its parent's frame.  Only
  // the root's first child takes a slot of its own.
  for (unsigned Ticks : {4u, 8u, 16u}) {
    ExploreOptions Opts;
    Opts.FairnessBound = 1;
    ExploreResult Res = exploreMachine(makeTickConfig(2, Ticks), Opts);
    ASSERT_TRUE(Res.Ok) << Res.Violation;
    EXPECT_EQ(Res.SchedulesExplored, 2u) << Ticks;
    EXPECT_EQ(Res.StatesExplored, 4u * Ticks + 1u) << Ticks;
    EXPECT_EQ(Res.WorkerMaxStack, std::vector<std::uint64_t>{2}) << Ticks;
  }
}

TEST(ExplorerTest, StoredOutcomesGoThroughTheBatchedCallback) {
  // Without OnOutcome the Explorer stores the distinct outcomes through a
  // callback of its own, so a stored run counts them as a streamed run
  // does, and a full store fails the run closed at every worker count.
  for (unsigned Threads : {1u, 2u, 4u}) {
    ExploreOptions Opts;
    Opts.Threads = Threads;
    ExploreResult Res = exploreMachine(makeTickConfig(2, 2), Opts);
    ASSERT_TRUE(Res.Ok) << Res.Violation;
    EXPECT_TRUE(Res.Complete) << Res.Truncation;
    EXPECT_EQ(Res.Outcomes.size(), 6u) << Threads;
    EXPECT_EQ(Res.DistinctOutcomes, 6u) << Threads;
    EXPECT_EQ(Res.AcceptedOutcomes, 6u) << Threads;

    Opts.MaxStoredOutcomes = 1;
    ExploreResult Capped = exploreMachine(makeTickConfig(2, 2), Opts);
    ASSERT_TRUE(Capped.Ok) << Capped.Violation;
    EXPECT_FALSE(Capped.Complete) << Threads;
    EXPECT_EQ(Capped.Truncation, "MaxStoredOutcomes budget (1) exhausted");
    EXPECT_EQ(Capped.Outcomes.size(), 1u) << Threads;
    EXPECT_EQ(Capped.SchedulesExplored, 6u) << Threads;
  }
}

TEST(ExplorerTest, StuckPrimitiveOnALastChildFails) {
  // The third tick gets stuck, on the only child of its parent: the frame
  // that stepped in place reports the fault with the log it had.
  KindId TickKind("tick");
  PrimSemantics Inc = makeFetchIncPrim("tick");
  auto StuckAtTwo = [Inc, TickKind](const PrimCall &Call)
      -> std::optional<PrimResult> {
    if (Call.Fold->count(TickKind) >= 2)
      return std::nullopt;
    return Inc(Call);
  };
  for (unsigned Threads : {1u, 2u}) {
    ExploreOptions Opts;
    Opts.Threads = Threads;
    ExploreResult Res = exploreMachine(makeTickConfig(1, 3, StuckAtTwo), Opts);
    EXPECT_FALSE(Res.Ok);
    const std::string Log2 = "1.tick \xE2\x80\xA2 1.tick";
    EXPECT_EQ(Res.Violation,
              "CPU 1: shared primitive 'tick' got stuck (data race or "
              "protocol violation); log: " +
                  Log2 + "\n  log: " + Log2)
        << Threads;
    EXPECT_EQ(Res.SchedulesExplored, 0u);
    EXPECT_EQ(Res.StatesExplored, 3u);
  }
}

TEST(ExplorerTest, CorpusCollected) {
  ExploreOptions Opts;
  Opts.CollectCorpus = true;
  ExploreResult Res = exploreMachine(makeTickConfig(2, 1), Opts);
  ASSERT_TRUE(Res.Ok);
  EXPECT_FALSE(Res.Corpus.empty());
}

TEST(ExplorerTest, RunScheduleFollowsPicks) {
  std::vector<ThreadId> Picks = {2, 2, 1, 1};
  size_t Next = 0;
  std::string Error;
  Outcome O = runSchedule(
      makeTickConfig(2, 2),
      [&](const std::vector<ThreadId> &Ready, const Log &) {
        ThreadId P = Picks[Next++ % Picks.size()];
        EXPECT_NE(std::find(Ready.begin(), Ready.end(), P), Ready.end());
        return P;
      },
      &Error);
  EXPECT_TRUE(Error.empty()) << Error;
  ASSERT_EQ(O.FinalLog.size(), 4u);
  EXPECT_EQ(O.FinalLog[0].Tid, 2u);
  EXPECT_EQ(O.FinalLog[2].Tid, 1u);
  EXPECT_EQ(O.Returns.at(2), std::vector<std::int64_t>{1});  // 0 then 1
  EXPECT_EQ(O.Returns.at(1), std::vector<std::int64_t>{23}); // 2 then 3
}

TEST(SoundnessTest, IdenticalMachinesRefineEachOther) {
  ContextualRefinementReport Rep = checkContextualRefinement(
      makeTickConfig(2, 1), makeTickConfig(2, 1), EventMap::identity(),
      ExploreOptions(), ExploreOptions());
  EXPECT_TRUE(Rep.Holds) << Rep.Counterexample;
  EXPECT_EQ(Rep.ImplOutcomes, Rep.SpecOutcomes);
}

TEST(SoundnessTest, SmallerWorkloadDoesNotRefineLarger) {
  ContextualRefinementReport Rep = checkContextualRefinement(
      makeTickConfig(2, 2), makeTickConfig(2, 1), EventMap::identity(),
      ExploreOptions(), ExploreOptions());
  EXPECT_FALSE(Rep.Holds);
  EXPECT_FALSE(Rep.Counterexample.empty());
}

TEST(SoundnessTest, MaxSchedulesOneIsNotValid) {
  // A single-schedule budget covers a prefix of the space; the check must
  // fail closed, name the truncating budget, and the certificate must not
  // come out Valid.
  MachineConfigPtr Cfg = makeTickConfig(2, 1);
  ExploreOptions ImplOpts;
  ImplOpts.MaxSchedules = 1;
  ContextualRefinementReport Rep = checkContextualRefinement(
      Cfg, makeTickConfig(2, 1), EventMap::identity(), ImplOpts,
      ExploreOptions());
  EXPECT_FALSE(Rep.Holds);
  EXPECT_TRUE(Rep.SpecComplete);
  EXPECT_FALSE(Rep.ImplComplete);
  EXPECT_NE(Rep.Counterexample.find("MaxSchedules"), std::string::npos)
      << Rep.Counterexample;

  CertPtr C = makeMachineCertificate("Soundness", "L", "P", "L",
                                     EventMap::identity().name(), Rep);
  EXPECT_FALSE(C->Valid);
  EXPECT_FALSE(C->CoverageComplete);
  EXPECT_NE(C->Coverage.find("MaxSchedules"), std::string::npos)
      << C->Coverage;
  // The partial coverage is visible in the rendered derivation tree.
  EXPECT_NE(C->tree().find("PARTIAL-COVERAGE"), std::string::npos);
}

TEST(SoundnessTest, SpecOutcomeCapProducesDiagnosticNotFalseCounterexample) {
  // A capped spec outcome set used to surface as a bogus "impl outcome
  // not admitted" counterexample; it must instead be an explicit
  // truncation diagnostic naming MaxStoredOutcomes, however many workers
  // store the spec outcomes.
  for (unsigned Threads : {1u, 2u, 4u}) {
    SCOPED_TRACE(Threads);
    ExploreOptions SpecOpts;
    SpecOpts.MaxStoredOutcomes = 1;
    SpecOpts.Threads = Threads;
    ContextualRefinementReport Rep = checkContextualRefinement(
        makeTickConfig(2, 1), makeTickConfig(2, 1), EventMap::identity(),
        ExploreOptions(), SpecOpts);
    EXPECT_FALSE(Rep.Holds);
    EXPECT_FALSE(Rep.SpecComplete);
    EXPECT_NE(Rep.Counterexample.find("MaxStoredOutcomes"), std::string::npos)
        << Rep.Counterexample;
    EXPECT_NE(Rep.Counterexample.find("raise"), std::string::npos)
        << Rep.Counterexample;
    // Not a false refinement counterexample:
    EXPECT_EQ(Rep.Counterexample.find("not admitted"), std::string::npos)
        << Rep.Counterexample;
  }
}

TEST(SoundnessTest, CertificateCarriesEvidence) {
  ContextualRefinementReport Rep = checkContextualRefinement(
      makeTickConfig(2, 1), makeTickConfig(2, 1), EventMap::identity(),
      ExploreOptions(), ExploreOptions());
  CertPtr C = makeMachineCertificate("Soundness", "L[D]", "P", "L[D]",
                                     "id", Rep);
  EXPECT_TRUE(C->Valid);
  EXPECT_EQ(C->Obligations, Rep.ObligationsChecked);
  EXPECT_GT(C->Runs, 0u);
}

namespace {

/// Stable textual key of an outcome, for order-insensitive set comparison
/// between sequential and parallel explorations.
std::string outcomeKey(const Outcome &O) {
  std::string Key = logToString(O.FinalLog);
  for (const auto &[Tid, Rets] : O.Returns) {
    Key += "|" + std::to_string(Tid) + ":";
    for (std::int64_t R : Rets)
      Key += std::to_string(R) + ",";
  }
  return Key;
}

std::multiset<std::string> outcomeKeys(const ExploreResult &Res) {
  std::multiset<std::string> Keys;
  for (const Outcome &O : Res.Outcomes)
    Keys.insert(outcomeKey(O));
  return Keys;
}

} // namespace

TEST(ExplorerTest, RunScheduleRejectsInvalidPick) {
  // A pick outside the schedulable set must be reported as a schedule
  // callback bug, not surface as a machine-level error.
  std::string Error;
  runSchedule(
      makeTickConfig(2, 1),
      [](const std::vector<ThreadId> &, const Log &) -> ThreadId {
        return 99;
      },
      &Error);
  ASSERT_FALSE(Error.empty());
  EXPECT_NE(Error.find("schedule callback"), std::string::npos) << Error;
  EXPECT_NE(Error.find("99"), std::string::npos) << Error;
}

TEST(ExplorerTest, OutcomeDedupRetainsCollidingOutcomes) {
  // Under the old separator-free chain hash these two outcomes collided
  // (hash(L, {1:[], 2:[]}) == hash(L, {1:[2]})) and the second was
  // silently dropped.  Both must be retained as distinct.
  Outcome A;
  A.Returns[1] = {};
  A.Returns[2] = {};
  Outcome B;
  B.Returns[1] = {2};
  OutcomeSet Dedup;
  EXPECT_TRUE(Dedup.insert(A));
  EXPECT_TRUE(Dedup.insert(B));
  // Genuine duplicates are still deduplicated.
  EXPECT_FALSE(Dedup.insert(A));
  EXPECT_FALSE(Dedup.insert(B));
}

TEST(ExplorerTest, ParallelExplorationMatchesSequential) {
  MachineConfigPtr Cfg = makeTickConfig(3, 2);
  ExploreOptions Seq;
  Seq.Threads = 1;
  ExploreResult A = exploreMachine(Cfg, Seq);
  ExploreOptions Par;
  Par.Threads = 4;
  ExploreResult B = exploreMachine(Cfg, Par);
  ASSERT_TRUE(A.Ok) << A.Violation;
  ASSERT_TRUE(B.Ok) << B.Violation;
  EXPECT_TRUE(A.Complete);
  EXPECT_TRUE(B.Complete);
  // Every node is expanded exactly once regardless of worker count, so
  // the counters agree; only outcome *order* may differ.
  EXPECT_EQ(A.SchedulesExplored, B.SchedulesExplored);
  EXPECT_EQ(A.StatesExplored, B.StatesExplored);
  EXPECT_EQ(A.InvariantChecks, B.InvariantChecks);
  EXPECT_EQ(A.MaxLogLen, B.MaxLogLen);
  EXPECT_EQ(outcomeKeys(A), outcomeKeys(B));
}

TEST(ExplorerTest, ParallelInvariantViolationReported) {
  ExploreOptions Opts;
  Opts.Threads = 4;
  Opts.Invariant = [](const MultiCoreMachine &M) -> std::string {
    if (logCountKind(M.log(), KindId("tick")) >= 3)
      return "too many ticks";
    return "";
  };
  ExploreResult Res = exploreMachine(makeTickConfig(2, 2), Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Violation.find("too many ticks"), std::string::npos);
  EXPECT_NE(Res.Violation.find("log:"), std::string::npos);
}

namespace {

/// Explores \p Cfg at \p Threads workers with an OnOutcome that rejects
/// one outcome, chosen from a stored sequential run.  Workers hand their
/// outcomes over in batches, so the run must still fail with exactly that
/// outcome's log, and every terminal schedule reached must be passed to
/// the callback once.
void expectChosenRejectionFails(const MachineConfigPtr &Cfg,
                                unsigned Threads) {
  ExploreResult All = exploreMachine(Cfg, ExploreOptions());
  ASSERT_TRUE(All.Ok) << All.Violation;
  ASSERT_FALSE(All.Outcomes.empty());
  const Outcome Chosen = All.Outcomes[All.Outcomes.size() / 2];
  ExploreOptions Opts;
  Opts.Threads = Threads;
  std::uint64_t Calls = 0; // unguarded: the Explorer serializes calls
  Opts.OnOutcome = [&Calls, &Chosen](const Outcome &O) -> std::string {
    ++Calls;
    return OutcomeSet::same(O, Chosen) ? "chosen outcome rejected" : "";
  };
  ExploreResult Res = exploreMachine(Cfg, Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_EQ(Res.Violation, "chosen outcome rejected\n  log: " +
                               logToString(Chosen.FinalLog));
  EXPECT_EQ(Calls, Res.SchedulesExplored);
  EXPECT_LE(Res.SchedulesExplored, All.SchedulesExplored);
  EXPECT_EQ(Res.AcceptedOutcomes + 1, Res.DistinctOutcomes);
}

} // namespace

TEST(ExplorerTest, ParallelRejectedOutcomeFailsWithItsLog) {
  // 1,680 schedules: several full batches per worker.
  for (unsigned Threads : {2u, 4u}) {
    SCOPED_TRACE(Threads);
    expectChosenRejectionFails(makeTickConfig(3, 3), Threads);
  }
}

TEST(ExplorerTest, RejectionInAPartialBatchStillFailsTheRun) {
  // 6 schedules, fewer than one batch per worker: the rejection is handed
  // over only when its worker's stack runs empty.
  for (unsigned Threads : {2u, 4u}) {
    SCOPED_TRACE(Threads);
    expectChosenRejectionFails(makeTickConfig(2, 2), Threads);
  }
}

TEST(ExplorerTest, RegistryCountersMatchExploreResult) {
  // The obs registry's view of a run must agree exactly with the
  // ExploreResult it was published from, work-sharing counters included.
  bool WasEnabled = obs::enabled();
  obs::setEnabled(true);
  obs::metricsReset();

  ExploreOptions Opts;
  Opts.Threads = 2;
  Opts.Invariant = [](const MultiCoreMachine &) { return std::string(); };
  ExploreResult Res = exploreMachine(makeTickConfig(3, 2), Opts);

  EXPECT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_GT(Res.InvariantChecks, 0u);
  EXPECT_EQ(obs::counterValue("explorer.schedules_explored"),
            Res.SchedulesExplored);
  EXPECT_EQ(obs::counterValue("explorer.states_explored"),
            Res.StatesExplored);
  EXPECT_EQ(obs::counterValue("explorer.invariant_checks"),
            Res.InvariantChecks);
  EXPECT_EQ(obs::counterValue("explorer.donations"), Res.Donations);
  EXPECT_EQ(obs::counterValue("explorer.steals"), Res.Steals);

  obs::metricsReset();
  obs::setEnabled(WasEnabled);
}

TEST(ExplorerTest, DonationsAreBoundedByProgress) {
  // A worker donates only frames below its top, each of which it has
  // stepped a child of since it got the frame, so donations never
  // outnumber explored states.  Donating the top frame let a frame bounce
  // between two workers without either stepping it: a tiny tree took
  // dozens of steals per run at four workers.  The bound holds on every
  // run, whatever the interleaving.
  for (unsigned Ticks : {1u, 2u}) {
    MachineConfigPtr Cfg = makeTickConfig(2, Ticks);
    for (unsigned Threads : {2u, 4u}) {
      ExploreOptions Opts;
      Opts.Threads = Threads;
      for (int Run = 0; Run != 20; ++Run) {
        ExploreResult Res = exploreMachine(Cfg, Opts);
        ASSERT_TRUE(Res.Ok) << Res.Violation;
        ASSERT_LE(Res.Donations, Res.StatesExplored)
            << Ticks << " ticks, " << Threads << " workers, run " << Run;
        ASSERT_LE(Res.Steals, Res.Donations);
      }
    }
  }
}
