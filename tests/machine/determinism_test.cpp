//===- tests/machine/determinism_test.cpp - Worker-count invariance -----------===//
//
// The sharded-recording contract (machine/Explorer.h): per-worker outcome
// shards merged at the join must make every counter and the outcome SET
// independent of the worker count.  Schedules/states/outcomes are
// schedule-deterministic (every node is expanded exactly once regardless
// of which worker expands it), while stored-outcome *order* is search-
// order dependent under work stealing — so counters compare exactly and
// outcomes compare as sets.  Threads=1 additionally pins the exact
// sequential baseline ordering.
//
//===----------------------------------------------------------------------===//

#include "machine/Explorer.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "objects/TicketLock.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace ccal;

namespace {

/// The atomic ticket-lock spec layer (the bench workload's shape, sized
/// for a test): blocking acq exercises the schedulable() dry-run path,
/// and f/g make return values schedule-sensitive.
MachineConfigPtr makeSpecConfig(unsigned Cpus, unsigned Rounds) {
  static TicketLockLayers Layers = makeTicketLockLayers();
  static ClightModule Client = cloneModule(makeTicketClient());
  static AsmProgramPtr Prog =
      compileAndLink("tickspec_det.lasm", {&Client});
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "tickspec_det";
  Cfg->Layer = Layers.L1;
  Cfg->Program = Prog;
  for (ThreadId C = 1; C <= Cpus; ++C) {
    std::vector<CpuWorkItem> Items;
    for (unsigned I = 0; I != Rounds; ++I)
      Items.push_back({"t_main", {}});
    Cfg->Work.emplace(C, std::move(Items));
  }
  return Cfg;
}

/// Canonical rendering of one outcome: the final log plus per-thread
/// returns, so set comparison sees full observable behavior.
std::string outcomeKey(const Outcome &O) {
  std::string S = logToString(O.FinalLog);
  for (const auto &[Tid, Rets] : O.Returns) {
    S += " | " + std::to_string(Tid) + ":";
    for (std::int64_t R : Rets)
      S += std::to_string(R) + ",";
  }
  return S;
}

std::multiset<std::string> outcomeSet(const ExploreResult &Res) {
  std::multiset<std::string> Out;
  for (const Outcome &O : Res.Outcomes)
    Out.insert(outcomeKey(O));
  return Out;
}

} // namespace

TEST(DeterminismTest, CountersAndOutcomeSetInvariantAcrossWorkerCounts) {
  std::map<unsigned, ExploreResult> Results;
  for (unsigned Threads : {1u, 2u, 4u}) {
    ExploreOptions Opts;
    Opts.FairnessBound = 2;
    Opts.MaxSteps = 512;
    Opts.Threads = Threads;
    Results.emplace(Threads, exploreMachine(makeSpecConfig(4, 2), Opts));
  }
  const ExploreResult &Base = Results.at(1);
  ASSERT_TRUE(Base.Ok) << Base.Violation;
  ASSERT_TRUE(Base.Complete);
  ASSERT_GT(Base.SchedulesExplored, 100u); // non-trivial state space
  std::multiset<std::string> BaseSet = outcomeSet(Base);
  for (unsigned Threads : {2u, 4u}) {
    const ExploreResult &Res = Results.at(Threads);
    ASSERT_TRUE(Res.Ok) << "Threads=" << Threads << ": " << Res.Violation;
    EXPECT_TRUE(Res.Complete) << Threads;
    EXPECT_EQ(Res.SchedulesExplored, Base.SchedulesExplored) << Threads;
    EXPECT_EQ(Res.StatesExplored, Base.StatesExplored) << Threads;
    EXPECT_EQ(Res.MaxLogLen, Base.MaxLogLen) << Threads;
    EXPECT_EQ(Res.Outcomes.size(), Base.Outcomes.size()) << Threads;
    EXPECT_EQ(outcomeSet(Res), BaseSet) << Threads;
    // Donations move contiguous frontier batches of up to 8 frames; the
    // batching decides WHERE work lands, never WHAT is explored.
    // Donations count frames, StealBatches the lock acquisitions that
    // moved them, and every batch carries at least one frame.
    EXPECT_LE(Res.StealBatches, Res.Donations) << Threads;
    EXPECT_LE(Res.Donations, Res.StealBatches * 8) << Threads;
  }
}

TEST(DeterminismTest, SpecCountersArePinnedAtEveryWorkerCount) {
  // Pinned from the search that pushed every child onto the stack, before
  // a parent's last child took the parent's frame: the tree is unchanged.
  struct Case {
    unsigned Cpus, Rounds;
    std::uint64_t Schedules, States, MaxLogLen;
  };
  for (const Case &C : {Case{3, 1, 6, 61, 12}, Case{4, 2, 984, 12161, 32}})
    for (unsigned Threads : {1u, 2u, 4u}) {
      SCOPED_TRACE(std::to_string(C.Cpus) + " CPUs, " +
                   std::to_string(Threads) + " workers");
      ExploreOptions Opts;
      Opts.FairnessBound = 2;
      Opts.Threads = Threads;
      ExploreResult Res =
          exploreMachine(makeSpecConfig(C.Cpus, C.Rounds), Opts);
      ASSERT_TRUE(Res.Ok) << Res.Violation;
      EXPECT_TRUE(Res.Complete);
      EXPECT_EQ(Res.SchedulesExplored, C.Schedules);
      EXPECT_EQ(Res.StatesExplored, C.States);
      EXPECT_EQ(Res.MaxLogLen, C.MaxLogLen);
      EXPECT_EQ(Res.Outcomes.size(), C.Schedules);
    }
}

TEST(DeterminismTest, SequentialRunsAreBitIdentical) {
  // Threads=1 twice: not just the same sets — the same order, entry for
  // entry, because the sequential engine is a deterministic DFS and the
  // shard merge with one worker is the identity.
  ExploreOptions Opts;
  Opts.FairnessBound = 2;
  Opts.MaxSteps = 512;
  Opts.Threads = 1;
  ExploreResult A = exploreMachine(makeSpecConfig(3, 1), Opts);
  ExploreResult B = exploreMachine(makeSpecConfig(3, 1), Opts);
  ASSERT_TRUE(A.Ok);
  ASSERT_TRUE(B.Ok);
  EXPECT_EQ(A.SchedulesExplored, B.SchedulesExplored);
  EXPECT_EQ(A.StatesExplored, B.StatesExplored);
  ASSERT_EQ(A.Outcomes.size(), B.Outcomes.size());
  for (size_t I = 0; I != A.Outcomes.size(); ++I) {
    EXPECT_EQ(A.Outcomes[I].FinalLog, B.Outcomes[I].FinalLog) << I;
    EXPECT_EQ(A.Outcomes[I].Returns, B.Outcomes[I].Returns) << I;
  }
}
