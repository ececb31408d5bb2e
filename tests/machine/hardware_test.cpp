//===- tests/machine/hardware_test.cpp - Thm 3.1 multicore linking --------------===//

#include "machine/HardwareMachine.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "tests/common/prim_contract.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace ccal;

// The hardware machine borrows its config like the query-point machine.
static_assert(
    std::is_constructible_v<HardwareMachine, const MachineConfigPtr &>);
static_assert(!std::is_constructible_v<HardwareMachine, MachineConfigPtr>);
static_assert(!std::is_constructible_v<HardwareMachine,
                                       std::shared_ptr<MachineConfig>>);

namespace {

/// A client with a little CPU-private computation around shared ticks, so
/// the hardware machine has many instruction interleavings that all
/// collapse to the same query-point behaviors.  Kept tiny: instruction-
/// granularity exploration is exponential in code length.
MachineConfigPtr makeLinkConfig(unsigned Cpus, unsigned Ticks) {
  static ClightModule Client1 = [] {
    ClightModule M = parseModuleOrDie("c1", R"(
      extern int tick();
      int scratch = 0;
      int t_main() {
        scratch = scratch + 1;   // CPU-private work before the query point
        return tick() * 10 + scratch;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  static ClightModule Client2 = [] {
    ClightModule M = parseModuleOrDie("c2", R"(
      extern int tick();
      int t_main() { return tick() * 10 + tick(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  const ClightModule *Client = Ticks >= 2 ? &Client2 : &Client1;
  auto L = makeInterface("Lx86");
  L->addShared("tick", makeFetchIncPrim("tick"));
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "linkcfg";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("linkcfg.lasm", {Client});
  for (ThreadId C = 1; C <= Cpus; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

/// One CPU running `t_main`, for the primitive-contract suite.
struct HardwareOf {
  static test::WithConfig<HardwareMachine, MachineConfigPtr>
  make(LayerPtr L, AsmProgramPtr P) {
    auto Cfg = std::make_shared<MachineConfig>();
    Cfg->Name = "contract";
    Cfg->Layer = std::move(L);
    Cfg->Program = std::move(P);
    Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
    return {Cfg, HardwareMachine(Cfg)};
  }
};

} // namespace

INSTANTIATE_TYPED_TEST_SUITE_P(Hardware, PrimContractTest, HardwareOf);

TEST(HardwareMachineTest, SingleCpuStepsInstructions) {
  MachineConfigPtr Cfg = makeLinkConfig(1, 1);
  HardwareMachine M(Cfg);
  ASSERT_TRUE(M.ok());
  std::uint64_t Steps = 0;
  while (!M.allIdle()) {
    std::vector<ThreadId> Ready = M.schedulable();
    ASSERT_EQ(Ready.size(), 1u);
    ASSERT_TRUE(M.step(Ready[0])) << M.error();
    ++Steps;
  }
  // Far more hardware cycles than the single query point.
  EXPECT_GT(Steps, 8u);
  EXPECT_EQ(M.log().size(), 1u);
  EXPECT_EQ(M.returns().at(1),
            std::vector<std::int64_t>{1}); // tick 0 * 10 + scratch 1
}

TEST(HardwareMachineTest, PreemptionBetweenInstructions) {
  // Run CPU 1 for a few instruction cycles (it does local work but has
  // not yet committed its shared tick), then let CPU 2 run to completion:
  // CPU 2 wins the tick even though CPU 1 started first — hardware
  // preemption at instruction granularity.
  MachineConfigPtr Cfg = makeLinkConfig(2, 1);
  HardwareMachine M(Cfg);
  for (int Cycle = 0; Cycle != 3; ++Cycle)
    ASSERT_TRUE(M.step(1)) << M.error();
  EXPECT_TRUE(M.log().empty()); // CPU 1's tick not yet committed
  while (M.log().empty())
    ASSERT_TRUE(M.step(2)) << M.error();
  EXPECT_EQ(M.log()[0].Tid, 2u);
}

TEST(MulticoreLinkTest, Thm31HoldsTwoCpus) {
  // Fairness bound 16 exceeds the longest local stretch, so the hardware
  // sweep is rich enough to check *exactness*: the reduction is lossless.
  MachineConfigPtr Cfg = makeLinkConfig(2, 1);
  ContextualRefinementReport Rep =
      checkMulticoreLinking(Cfg, /*FairnessBound=*/16,
                            /*MaxSchedules=*/1u << 22,
                            /*CheckExactness=*/true);
  ASSERT_TRUE(Rep.Holds) << Rep.Counterexample;
  // The hardware machine explores many more schedules but produces
  // exactly the layer machine's outcomes.  The report sums both sides'
  // schedules; the layer side's are the query-point machine's alone.
  ExploreOptions LayerOpts;
  LayerOpts.FairnessBound = 1u << 20;
  std::uint64_t LayerSchedules =
      exploreMachine(Cfg, LayerOpts).SchedulesExplored;
  EXPECT_GT(Rep.SchedulesExplored - LayerSchedules, LayerSchedules);
  EXPECT_EQ(Rep.ImplOutcomes, Rep.SpecOutcomes);
  EXPECT_EQ(Rep.ObligationsChecked, Rep.ImplOutcomes);
}

TEST(MulticoreLinkTest, ExactnessFailsWhenTheSweepMissesLayerOutcomes) {
  // Fairness bound 1 forbids two consecutive hardware cycles by one CPU
  // while the other waits, so the hardware sweep reaches only some of the
  // layer outcomes: the forward inclusion still holds, exactness must not.
  MachineConfigPtr Cfg = makeLinkConfig(2, 2);
  ContextualRefinementReport Forward =
      checkMulticoreLinking(Cfg, /*FairnessBound=*/1);
  ASSERT_TRUE(Forward.Holds) << Forward.Counterexample;
  ASSERT_LT(Forward.ImplOutcomes, Forward.SpecOutcomes);
  ContextualRefinementReport Exact =
      checkMulticoreLinking(Cfg, /*FairnessBound=*/1,
                            /*MaxSchedules=*/1u << 22,
                            /*CheckExactness=*/true);
  EXPECT_FALSE(Exact.Holds);
  EXPECT_NE(Exact.Counterexample.find("layer outcomes are reachable"),
            std::string::npos)
      << Exact.Counterexample;
}

TEST(MulticoreLinkTest, Thm31HoldsTwoTicks) {
  ContextualRefinementReport Rep =
      checkMulticoreLinking(makeLinkConfig(2, 2), /*FairnessBound=*/2);
  ASSERT_TRUE(Rep.Holds) << Rep.Counterexample;
  EXPECT_GE(Rep.ImplOutcomes, 2u);
}

TEST(MulticoreLinkTest, CertificateRecordsEvidence) {
  ContextualRefinementReport Rep =
      checkMulticoreLinking(makeLinkConfig(2, 1), /*FairnessBound=*/2);
  CertPtr C = makeMachineCertificate("MulticoreLink", "Mx86(linkcfg)",
                                     "(hardware scheduling)",
                                     "Lx86[D](linkcfg)", "id", Rep);
  EXPECT_TRUE(C->Valid);
  EXPECT_EQ(C->Rule, "MulticoreLink");
  EXPECT_GT(C->Runs, 0u);
}

TEST(MulticoreLinkTest, SharedLocalMemoryWouldBreakTheTheorem) {
  // Negative control: if a "private" primitive actually observed shared
  // state (here: the number of ticks so far), instruction interleavings
  // become observable and the hardware machine produces outcomes the
  // layer machine cannot.  The checker must catch this modeling error.
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int tick();
      extern int leak();
      int t_main() { return leak() * 100 + tick(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Lleaky");
  L->addShared("tick", makeFetchIncPrim("tick"));
  // A *private* primitive that reads the shared state: a modeling bug.
  L->addPrivate("leak", [](const PrimCall &Call)
                    -> std::optional<PrimResult> {
    PrimResult Res;
    Res.Ret = static_cast<std::int64_t>(Call.Fold->count(KindId("tick")));
    return Res;
  });
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "leaky";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("leaky.lasm", {&Client});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});

  ContextualRefinementReport Rep =
      checkMulticoreLinking(Cfg, /*FairnessBound=*/3);
  EXPECT_FALSE(Rep.Holds);
}

TEST(MulticoreLinkTest, OnOutcomeFiresPerScheduleAndCountsDistinctOutcomes) {
  // Many instruction interleavings reach each query-point outcome, so the
  // hardware machine's schedules outnumber its distinct outcomes: a
  // callback fired once per distinct outcome is told apart from one fired
  // once per schedule.  The stored path's deduplicated Outcomes are the
  // reference for the fingerprint counts, at every worker count.
  MachineConfigPtr Cfg = makeLinkConfig(2, 1);
  GenericExploreOptions<HardwareMachine> Opts;
  Opts.FairnessBound = 2;
  ExploreResult Stored = exploreGeneric(HardwareMachine(Cfg), Opts);
  ASSERT_TRUE(Stored.Ok) << Stored.Violation;
  ASSERT_TRUE(Stored.Complete);
  ASSERT_GT(Stored.SchedulesExplored, Stored.Outcomes.size());
  ExploreOptions LayerOpts;
  LayerOpts.FairnessBound = 1u << 20;
  for (unsigned Threads : {1u, 2u, 4u}) {
    GenericExploreOptions<HardwareMachine> Streamed = Opts;
    Streamed.Threads = Threads;
    std::uint64_t Calls = 0; // unguarded: the Explorer serializes calls
    Streamed.OnOutcome = [&Calls](const Outcome &) {
      ++Calls;
      return std::string();
    };
    ExploreResult Res = exploreGeneric(HardwareMachine(Cfg), Streamed);
    ASSERT_TRUE(Res.Ok) << Res.Violation;
    EXPECT_EQ(Res.SchedulesExplored, Stored.SchedulesExplored) << Threads;
    EXPECT_EQ(Calls, Res.SchedulesExplored) << Threads;
    EXPECT_EQ(Res.DistinctOutcomes, Stored.Outcomes.size()) << Threads;
    EXPECT_EQ(Res.AcceptedOutcomes, Stored.Outcomes.size()) << Threads;

    GenericExploreOptions<HardwareMachine> HwOpts = Opts;
    HwOpts.Threads = Threads;
    ContextualRefinementReport Rep = checkOutcomeInclusion(
        HardwareMachine(Cfg), MultiCoreMachine(Cfg), EventMap::identity(),
        EventMap::identity(), HwOpts, LayerOpts);
    ASSERT_TRUE(Rep.Holds) << Rep.Counterexample;
    EXPECT_EQ(Rep.ImplOutcomes, Stored.Outcomes.size()) << Threads;
    EXPECT_EQ(Rep.ObligationsChecked, Stored.Outcomes.size()) << Threads;
  }
}

TEST(MulticoreLinkTest, FingerprintCountsEqualTheOutcomesTheCallbackSaw) {
  // Each worker sorts its own fingerprints and the join merges the runs;
  // the counts must equal the distinct outcomes the callback was handed,
  // compared structurally, at every worker count.  The second callback
  // rejects one outcome that several schedules reach, so the run stops
  // early with some outcomes accepted, some rejected, and a
  // worker-dependent set of them seen.
  MachineConfigPtr Cfg = makeLinkConfig(2, 1);
  GenericExploreOptions<HardwareMachine> Opts;
  Opts.FairnessBound = 2;
  ExploreResult Stored = exploreGeneric(HardwareMachine(Cfg), Opts);
  ASSERT_TRUE(Stored.Ok) << Stored.Violation;
  ASSERT_GE(Stored.Outcomes.size(), 2u);
  OutcomeSet All;
  for (const Outcome &O : Stored.Outcomes)
    All.insert(O);
  const Outcome &Refused = Stored.Outcomes.back();
  for (bool Reject : {false, true}) {
    for (unsigned Threads : {1u, 2u, 4u}) {
      GenericExploreOptions<HardwareMachine> Streamed = Opts;
      Streamed.Threads = Threads;
      // Unguarded: the Explorer serializes the calls.
      OutcomeSet Seen, Accepted;
      std::uint64_t Calls = 0;
      Streamed.OnOutcome = [&](const Outcome &O) {
        ++Calls;
        EXPECT_TRUE(All.contains(O));
        Seen.insert(O);
        if (Reject && OutcomeSet::same(O, Refused))
          return std::string("refused");
        Accepted.insert(O);
        return std::string();
      };
      ExploreResult Res = exploreGeneric(HardwareMachine(Cfg), Streamed);
      EXPECT_EQ(Res.Ok, !Reject) << Threads;
      EXPECT_EQ(Res.DistinctOutcomes, Seen.size()) << Threads;
      EXPECT_EQ(Res.AcceptedOutcomes, Accepted.size()) << Threads;
      if (!Reject) {
        EXPECT_GT(Calls, Seen.size()) << Threads; // outcomes repeat
        EXPECT_EQ(Seen.size(), Stored.Outcomes.size()) << Threads;
      } else {
        EXPECT_EQ(Accepted.size() + 1, Seen.size()) << Threads;
        EXPECT_NE(Res.Violation.find("refused"), std::string::npos);
      }
    }
  }
}
