//===- tests/objects/sharedqueue_test.cpp - Shared queue refinement tests -------===//

#include "objects/SharedQueue.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"

#include <gtest/gtest.h>

using namespace ccal;

TEST(SharedQueueReplayTest, EnqDeqFifo) {
  Replayer<AbstractSharedQueue> R = makeSharedQueueReplayer();
  Log L = {Event(1, KindId("enQ"), {10}), Event(1, KindId("enQ"), {20}),
           Event(2, KindId("deQ"))};
  std::optional<AbstractSharedQueue> S = R.replay(L);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Items, (std::vector<std::int64_t>{20}));
}

TEST(SharedQueueReplayTest, DeqOnEmptyIsNoop) {
  Replayer<AbstractSharedQueue> R = makeSharedQueueReplayer();
  Log L = {Event(1, KindId("deQ")), Event(1, KindId("enQ"), {5})};
  std::optional<AbstractSharedQueue> S = R.replay(L);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Items, (std::vector<std::int64_t>{5}));
}

TEST(SharedQueueReplayTest, CapacityBounded) {
  Replayer<AbstractSharedQueue> R = makeSharedQueueReplayer();
  Log L;
  for (int I = 0; I != SharedQueueCap + 3; ++I)
    logAppend(L, Event(1, KindId("enQ"), {I}));
  std::optional<AbstractSharedQueue> S = R.replay(L);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->Items.size(), static_cast<size_t>(SharedQueueCap));
}

TEST(SharedQueueTest, CertifiesOneProducerOneConsumer) {
  HarnessOutcome Out = certifySharedQueue(1, 1, 2);
  ASSERT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
  EXPECT_TRUE(Out.Layer.valid());
  EXPECT_GT(Out.Report.ObligationsChecked, 0u);
  EXPECT_EQ(Out.Report.SchedulesExplored, 8u);
  EXPECT_EQ(Out.Report.StatesExplored, 60u);
  // Vertical composition target: the underlay is the lock's atomic
  // interface, not the ticket machine.
  EXPECT_EQ(Out.Layer.Underlay->name(), "L1_lock_pp");
  EXPECT_EQ(Out.Layer.Overlay->name(), "Lq");
}

TEST(SharedQueueTest, CertifiesTwoProducers) {
  HarnessOutcome Out = certifySharedQueue(2, 1, 1);
  ASSERT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
  EXPECT_EQ(Out.Report.SchedulesExplored, 12u);
  EXPECT_EQ(Out.Report.StatesExplored, 92u);
}

TEST(SharedQueueTest, SetupWiring) {
  SharedQueueSetup S = makeSharedQueueSetup(1, 1, 1);
  EXPECT_TRUE(S.Underlay->provides("acq"));
  EXPECT_TRUE(S.Underlay->provides("pull"));
  EXPECT_TRUE(S.Underlay->provides("deq_done"));
  EXPECT_TRUE(S.Overlay->provides("deQ"));
  EXPECT_TRUE(S.Overlay->provides("enQ"));
  // The commit relation maps markers to atomic events and hides the rest.
  EXPECT_EQ(S.R.map(Event(1, KindId("deq_done"), {5})),
            Event(1, KindId("deQ")));
  EXPECT_EQ(S.R.map(Event(1, KindId("enq_done"), {5})),
            Event(1, KindId("enQ"), {5}));
  EXPECT_FALSE(S.R.map(Event(1, KindId("acq"))).has_value());
  EXPECT_FALSE(S.R.map(Event(1, KindId("pull"), {0})).has_value());
}

TEST(SharedQueueTest, ImplMachineUsesPushPullSafely) {
  // Direct exploration of the implementation: no data race (no stuck
  // pull/push) on any schedule, thanks to the lock protocol.
  SharedQueueSetup S = makeSharedQueueSetup(1, 1, 2);
  ExploreOptions Opts;
  Opts.FairnessBound = 4;
  Opts.MaxSteps = 512;
  ExploreResult Res = exploreMachine(S.ImplConfig, Opts);
  EXPECT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_TRUE(Res.Complete);
}

TEST(SharedQueueTest, UnlockedPushPullRaceIsCaught) {
  // Fig. 6's data-race story end to end: the same pull/push cell accessed
  // WITHOUT the lock.  On some schedule both CPUs pull concurrently; the
  // machine gets stuck and the explorer reports it.
  static ClightModule Racy = [] {
    ClightModule M = parseModuleOrDie("racy", R"(
      extern void pull(int b);
      extern void push(int b);

      int c_data[2];

      int racy() {
        pull(0);
        c_data[0] = c_data[0] + 1;
        push(0);
        return c_data[0];
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();

  AsmProgramPtr Prog = compileAndLink("racy.lasm", {&Racy});
  PushPullModel Mem;
  PushPullModel::Location Cell;
  Cell.Loc = 0;
  Cell.LocalBase = Prog->globalAddr("c_data");
  Cell.Size = 2;
  Mem.addLocation(Cell);
  auto L = std::make_shared<LayerInterface>("Lracy");
  Mem.installPrims(*L);

  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "racy";
  Cfg->Layer = L;
  Cfg->Program = Prog;
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"racy", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"racy", {}}});

  ExploreOptions Opts;
  Opts.MaxSteps = 64;
  ExploreResult Res = exploreMachine(Cfg, Opts);
  EXPECT_FALSE(Res.Ok);
  EXPECT_NE(Res.Violation.find("stuck"), std::string::npos);
}

TEST(SharedQueueTest, SerializedPushPullIsRaceFree) {
  // The same cell accessed by one CPU at a time (single CPU): no schedule
  // gets stuck, and the increments accumulate through the log.
  static ClightModule Racy = [] {
    ClightModule M = parseModuleOrDie("ser", R"(
      extern void pull(int b);
      extern void push(int b);

      int c_data[2];

      int bump_cell() {
        pull(0);
        c_data[0] = c_data[0] + 1;
        push(0);
        return c_data[0];
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();

  AsmProgramPtr Prog = compileAndLink("ser.lasm", {&Racy});
  PushPullModel Mem;
  PushPullModel::Location Cell;
  Cell.Loc = 0;
  Cell.LocalBase = Prog->globalAddr("c_data");
  Cell.Size = 2;
  Mem.addLocation(Cell);
  auto L = std::make_shared<LayerInterface>("Lser");
  Mem.installPrims(*L);

  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "ser";
  Cfg->Layer = L;
  Cfg->Program = Prog;
  Cfg->Work.emplace(
      1, std::vector<CpuWorkItem>{{"bump_cell", {}}, {"bump_cell", {}}});

  ExploreOptions Opts;
  ExploreResult Res = exploreMachine(Cfg, Opts);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  ASSERT_EQ(Res.Outcomes.size(), 1u);
  EXPECT_EQ(Res.Outcomes[0].Returns.at(1),
            (std::vector<std::int64_t>{1, 2})); // state carried via the log
}
