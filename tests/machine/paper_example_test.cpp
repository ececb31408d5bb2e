//===- tests/machine/paper_example_test.cpp - The §2 worked example -------------===//
//
// Reconstructs the paper's running example end to end: the Fig. 3 program
// (client P with threads T1/T2 calling foo, module M2 implementing foo over
// acq/rel/f/g, module M1 implementing the ticket lock over L0), run under
// the §2 schedule "1, 2, 2, 1, 1, 2, 1, 2, 1, 1, 2, 2", producing exactly
// the log l'_g, whose R1-image is exactly l_g.
//
//===----------------------------------------------------------------------===//

#include "machine/Explorer.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "objects/TicketLock.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

ClightModule makeFooModule() {
  // Fig. 3, M2.
  ClightModule M = parseModuleOrDie("M2_foo", R"(
    extern void acq();
    extern void rel();
    extern int f();
    extern int g();

    int foo() {
      acq();
      int a = f();
      int b = g();
      rel();
      return a * 10 + b;
    }
  )");
  typeCheckOrDie(M);
  return M;
}

ClightModule makeFig3Client() {
  // Fig. 3, client P: threads T1 and T2 both call foo.
  ClightModule M = parseModuleOrDie("P_fig3", R"(
    extern int foo();
    int t_main() { return foo(); }
  )");
  typeCheckOrDie(M);
  return M;
}

MachineConfigPtr makeFig3ImplConfig() {
  static ClightModule Client;
  static ClightModule Foo;
  static ClightModule Ticket;
  static TicketLockLayers Layers = makeTicketLockLayers();
  Client = makeFig3Client();
  Foo = makeFooModule();
  Ticket = cloneModule(Layers.M1);

  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "fig3.impl";
  Cfg->Layer = Layers.L0;
  Cfg->Program =
      compileAndLink("fig3.impl.lasm", {&Client, &Foo, &Ticket});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

} // namespace

TEST(PaperExampleTest, Section2ScheduleProducesLogLgPrime) {
  // The §2 hardware schedule.
  std::vector<ThreadId> Picks = {1, 2, 2, 1, 1, 2, 1, 2, 1, 1, 2, 2};
  size_t Next = 0;
  std::string Error;
  Outcome O = runSchedule(
      makeFig3ImplConfig(),
      [&](const std::vector<ThreadId> &Ready, const Log &) -> ThreadId {
        if (Next < Picks.size()) {
          ThreadId P = Picks[Next++];
          EXPECT_NE(std::find(Ready.begin(), Ready.end(), P), Ready.end())
              << "schedule step " << Next - 1 << " not runnable";
          return P;
        }
        return Ready.front(); // drain the rest deterministically
      },
      &Error);
  ASSERT_TRUE(Error.empty()) << Error;

  // l'_g from §2.
  Log LgPrime = {
      Event(1, KindId("FAI_t")), Event(2, KindId("FAI_t")),
      Event(2, KindId("get_n")), Event(1, KindId("get_n")),
      Event(1, KindId("hold")),  Event(2, KindId("get_n")),
      Event(1, KindId("f")),     Event(2, KindId("get_n")),
      Event(1, KindId("g")),     Event(1, KindId("inc_n")),
      Event(2, KindId("get_n")), Event(2, KindId("hold")),
  };
  ASSERT_GE(O.FinalLog.size(), LgPrime.size());
  for (size_t I = 0; I != LgPrime.size(); ++I)
    EXPECT_EQ(O.FinalLog[I], LgPrime[I]) << "at index " << I;

  // The R1 image of the l'_g prefix is l_g from §2.
  TicketLockLayers Layers = makeTicketLockLayers();
  Log Mapped = Layers.R1.apply(LgPrime);
  Log Lg = {Event(1, KindId("acq")), Event(1, KindId("f")),
            Event(1, KindId("g")), Event(1, KindId("rel")),
            Event(2, KindId("acq"))};
  EXPECT_EQ(Mapped, Lg);
}

TEST(PaperExampleTest, MutualExclusionHoldsOnEverySchedule) {
  ExploreOptions Opts;
  Opts.FairnessBound = 2;
  Opts.MaxSteps = 256;
  Opts.Invariant = ticketMutexInvariant;
  ExploreResult Res = exploreMachine(makeFig3ImplConfig(), Opts);
  EXPECT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_TRUE(Res.Complete);
  EXPECT_GT(Res.SchedulesExplored, 1u);
  // Both lock-acquisition orders are reachable.
  bool OneFirst = false, TwoFirst = false;
  for (const Outcome &O : Res.Outcomes) {
    Log Holds = logFilterKind(O.FinalLog, KindId("hold"));
    ASSERT_EQ(Holds.size(), 2u);
    OneFirst |= Holds[0].Tid == 1;
    TwoFirst |= Holds[0].Tid == 2;
  }
  EXPECT_TRUE(OneFirst);
  EXPECT_TRUE(TwoFirst);
}

TEST(PaperExampleTest, ClientReturnValuesFollowCriticalSectionOrder) {
  // Whoever enters the critical section first returns f=0,g=0 -> 0; the
  // second returns f=1,g=1 -> 11.
  ExploreOptions Opts;
  Opts.FairnessBound = 2;
  Opts.MaxSteps = 256;
  ExploreResult Res = exploreMachine(makeFig3ImplConfig(), Opts);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  for (const Outcome &O : Res.Outcomes) {
    Log Holds = logFilterKind(O.FinalLog, KindId("hold"));
    ASSERT_EQ(Holds.size(), 2u);
    ThreadId First = Holds[0].Tid;
    ThreadId Second = Holds[1].Tid;
    EXPECT_EQ(O.Returns.at(First), std::vector<std::int64_t>{0});
    EXPECT_EQ(O.Returns.at(Second), std::vector<std::int64_t>{11});
  }
}

TEST(PaperExampleTest, SequentialExplorationMatchesSeedBaseline) {
  // Regression pin for the Threads=1 determinism guarantee: the explicit
  // stack engine must reproduce the recursive Explorer's exact traversal.
  // These numbers (and the first outcome's log) were captured from the
  // sequential implementation on this §2 configuration.
  ExploreOptions Opts;
  Opts.FairnessBound = 2;
  Opts.MaxSteps = 256;
  ExploreResult Res = exploreMachine(makeFig3ImplConfig(), Opts);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_TRUE(Res.Complete);
  EXPECT_EQ(Res.SchedulesExplored, 328u);
  EXPECT_EQ(Res.StatesExplored, 2533u);
  EXPECT_EQ(Res.Outcomes.size(), 328u);
  EXPECT_EQ(Res.MaxLogLen, 21u);
  ASSERT_FALSE(Res.Outcomes.empty());
  EXPECT_EQ(logToString(Res.Outcomes[0].FinalLog),
            "1.FAI_t \xE2\x80\xA2 1.get_n \xE2\x80\xA2 2.FAI_t \xE2\x80\xA2 "
            "1.hold \xE2\x80\xA2 1.f \xE2\x80\xA2 2.get_n \xE2\x80\xA2 1.g "
            "\xE2\x80\xA2 1.inc_n \xE2\x80\xA2 2.get_n \xE2\x80\xA2 2.hold "
            "\xE2\x80\xA2 2.f \xE2\x80\xA2 2.g \xE2\x80\xA2 2.inc_n");
}

TEST(PaperExampleTest, ParallelExplorationAgreesWithBaseline) {
  ExploreOptions Opts;
  Opts.FairnessBound = 2;
  Opts.MaxSteps = 256;
  Opts.Threads = 4;
  ExploreResult Res = exploreMachine(makeFig3ImplConfig(), Opts);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_TRUE(Res.Complete);
  EXPECT_EQ(Res.SchedulesExplored, 328u);
  EXPECT_EQ(Res.StatesExplored, 2533u);
  EXPECT_EQ(Res.Outcomes.size(), 328u);
  EXPECT_EQ(Res.MaxLogLen, 21u);
}
