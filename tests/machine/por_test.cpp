//===- tests/machine/por_test.cpp - Partial-order reduction tests ---------------===//
//
// Differential soundness of the sleep-set reduction (POR must preserve the
// deduplicated outcome set on every seed workload), the negative control
// (an under-reported footprint must be caught, not silently accepted), and
// the truncation regressions (no Valid certificate from an incomplete
// exploration).
//
//===----------------------------------------------------------------------===//

#include "machine/Explorer.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "machine/Soundness.h"
#include "objects/Harness.h"
#include "objects/McsLock.h"
#include "objects/SharedQueue.h"
#include "objects/TicketLock.h"
#include "threads/Sched.h"
#include "threads/ThreadMachine.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

using namespace ccal;

namespace {

/// Fully independent workload: each CPU bumps its own counter through its
/// own primitive, with honestly disjoint declared footprints.  Every
/// interleaving reaches the same outcome, so POR should collapse the
/// schedule space to (nearly) one representative per Mazurkiewicz trace.
MachineConfigPtr makeIndependentCountersConfig() {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int tick1();
      extern int tick2();
      extern int tick3();
      int t1() { tick1(); tick1(); return 0; }
      int t2() { tick2(); tick2(); return 0; }
      int t3() { tick3(); tick3(); return 0; }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Lindep");
  L->addShared("tick1", makeFetchIncPrim("tick1"),
               Footprint::of({"c1"}, {"c1"}));
  L->addShared("tick2", makeFetchIncPrim("tick2"),
               Footprint::of({"c2"}, {"c2"}));
  L->addShared("tick3", makeFetchIncPrim("tick3"),
               Footprint::of({"c3"}, {"c3"}));
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "indep";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("indep.lasm", {&Client});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t1", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"t2", {}}});
  Cfg->Work.emplace(3, std::vector<CpuWorkItem>{{"t3", {}}});
  return Cfg;
}

/// The Fig. 3 stack over the concrete L0 ticket-lock layer: two CPUs
/// contending for the lock, with genuinely dependent (lock words) and
/// genuinely independent (f vs g) primitives mixed.
MachineConfigPtr makeFig3Config() {
  static TicketLockLayers Layers = makeTicketLockLayers();
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("P", R"(
      extern void acq();
      extern void rel();
      extern int f();
      extern int g();
      int t_main() {
        acq();
        int a = f();
        int b = g();
        rel();
        return a * 10 + b;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  static ClightModule Ticket = cloneModule(Layers.M1);
  static AsmProgramPtr Prog =
      compileAndLink("fig3_por.lasm", {&Client, &Ticket});
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "fig3";
  Cfg->Layer = Layers.L0;
  Cfg->Program = Prog;
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

/// The atomic ticket-lock spec layer L1 under the same client shape.
MachineConfigPtr makeTicketSpecConfig(unsigned Cpus) {
  static TicketLockLayers Layers = makeTicketLockLayers();
  static ClightModule Client = cloneModule(makeTicketClient());
  static AsmProgramPtr Prog =
      compileAndLink("tickspec_por.lasm", {&Client});
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "tickspec";
  Cfg->Layer = Layers.L1;
  Cfg->Program = Prog;
  for (ThreadId C = 1; C <= Cpus; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

/// The atomic MCS spec layer under the same client shape.
MachineConfigPtr makeMcsSpecConfig(unsigned Cpus) {
  static McsLockLayers Layers = makeMcsLockLayers();
  static ClightModule Client = cloneModule(makeTicketClient());
  static AsmProgramPtr Prog =
      compileAndLink("mcsspec_por.lasm", {&Client});
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "mcsspec";
  Cfg->Layer = Layers.L1;
  Cfg->Program = Prog;
  for (ThreadId C = 1; C <= Cpus; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

/// Two-CPU layer whose declared footprints LIE: `r` reads the counter
/// that `w` bumps, but declares a footprint disjoint from `w`'s.  The
/// differential check must catch the resulting missed outcome.
MachineConfigPtr makeLyingFootprintConfig() {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int w();
      extern int r();
      int t_w() { return w(); }
      int t_r() { return r(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Llying");
  L->addShared("w", makeFetchIncPrim("w"), Footprint::of({"w"}, {"w"}));
  // r's return value depends on the number of w events, but its declared
  // footprint omits the read — the under-reporting POR must not trust.
  L->addShared("r", makeReadCounterPrim("r", "w"),
               Footprint::of({"r"}, {"r"}));
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "lying";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("lying.lasm", {&Client});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_w", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"t_r", {}}});
  return Cfg;
}

/// Plain shared-counter workload (every step conflicts with every other):
/// the truncation regressions only need a machine with >1 schedule.
MachineConfigPtr makeTickConfig(unsigned Cpus, unsigned Ticks) {
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
  L->addShared("tick", makeFetchIncPrim("tick"));
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "tick";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("tick_por.lasm", {&Client});
  for (ThreadId C = 1; C <= Cpus; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{
                             {"t_main", {static_cast<std::int64_t>(Ticks)}}});
  return Cfg;
}

/// Two threads on two CPUs over the high-level scheduler prims; the
/// threaded machine declares opaque footprints, so POR must degrade to a
/// full exploration (zero skips) while staying equivalent.
ThreadedConfigPtr makeThreadedConfig() {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern void yield();
      extern int bump();
      int t_main() {
        int a = bump();
        yield();
        int b = bump();
        return a * 100 + b;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}, {1, 1}};
  auto L = makeInterface("Lhtd_por");
  installHighSchedPrims(*L, CpuOf);
  L->addShared("bump", makeFetchIncPrim("bump"));
  auto Cfg = std::make_shared<ThreadedConfig>();
  Cfg->Name = "htd_por";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("htd_por.lasm", {&Client});
  Cfg->Sched = makeHighSchedFn(CpuOf);
  Cfg->Threads.push_back({0, 0, {{"t_main", {}}}});
  Cfg->Threads.push_back({1, 1, {{"t_main", {}}}});
  return Cfg;
}

} // namespace

//===----------------------------------------------------------------------===//
// Differential POR soundness (tentpole)
//===----------------------------------------------------------------------===//

TEST(PorTest, IndependentCountersReduction) {
  // 3 CPUs x 2 fully independent steps: 6!/(2!2!2!) = 90 schedules in
  // full, one Mazurkiewicz trace under POR.  Source-set DPOR detects no
  // race anywhere (disjoint footprints), so no backtrack point is ever
  // scheduled and exactly ONE schedule is explored — where sleep sets
  // alone still walked every child and pruned late.
  ExploreOptions Opts;
  PorEquivalenceReport R =
      checkPorEquivalence(makeIndependentCountersConfig(), Opts);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_TRUE(R.Match) << R.Detail;
  EXPECT_EQ(R.FullSchedules, 90u);
  EXPECT_EQ(R.PorSchedules, 1u);
  EXPECT_EQ(R.Backtracks, 0u);
}

TEST(PorTest, EquivalenceFig3) {
  // The concrete ticket-lock stack: dependent lock words, independent
  // f/g.  FairnessBound is linearization-dependent, so the differential
  // check bounds the spinning acq with the trace-invariant per-CPU cap.
  // The lock-word conflicts force genuine races, so DPOR must both
  // schedule reversals (backtracks) and still come out strictly smaller
  // than the full sweep.
  ExploreOptions Opts;
  Opts.MaxParticipantSteps = 10;
  Opts.MaxSteps = 256;
  PorEquivalenceReport R = checkPorEquivalence(makeFig3Config(), Opts);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_TRUE(R.Match) << R.Detail;
  EXPECT_LT(R.PorSchedules, R.FullSchedules);
  EXPECT_GT(R.Backtracks, 0u);
}

TEST(PorTest, EquivalenceTicketSpec) {
  // The atomic L1 layer: blocking acq means no spinning, so no divergence
  // bound is needed even with fairness cleared.
  ExploreOptions Opts;
  Opts.MaxSteps = 4096;
  PorEquivalenceReport R =
      checkPorEquivalence(makeTicketSpecConfig(3), Opts);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_TRUE(R.Match) << R.Detail;
  EXPECT_LE(R.PorSchedules, R.FullSchedules);
}

TEST(PorTest, EquivalenceMcsSpec) {
  ExploreOptions Opts;
  Opts.MaxSteps = 4096;
  PorEquivalenceReport R = checkPorEquivalence(makeMcsSpecConfig(2), Opts);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_TRUE(R.Match) << R.Detail;
}

TEST(PorTest, EquivalenceSharedQueue) {
  // Producer/consumer over the atomic-lock underlay (blocking acq;
  // terminates without a fairness bound).
  SharedQueueSetup Setup = makeSharedQueueSetup(1, 1, 1);
  ExploreOptions Opts;
  Opts.MaxSteps = 512;
  PorEquivalenceReport R = checkPorEquivalence(Setup.ImplConfig, Opts);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_TRUE(R.Match) << R.Detail;
}

TEST(PorTest, EquivalenceThreadedOpaque) {
  // The threaded machine declares opaque footprints (settle() hides the
  // dispatcher's side effects), so POR must not skip anything — and the
  // differential check must still report equality.
  ThreadedMachine Root(makeThreadedConfig());
  ASSERT_TRUE(Root.ok()) << Root.error();
  ThreadedExploreOptions Opts;
  PorEquivalenceReport R = checkPorEquivalence(Root, Opts);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_TRUE(R.Match) << R.Detail;
  EXPECT_EQ(R.SleepSkips, 0u);
  EXPECT_EQ(R.PorSchedules, R.FullSchedules);
}

TEST(PorTest, UnderReportedFootprintCaught) {
  // Negative control: `r` reads the counter `w` bumps but declares a
  // disjoint footprint.  POR trusts the declaration, collapses the two
  // orders, and loses the r-before-w outcome — the differential check
  // must report the divergence instead of Match.
  ExploreOptions Opts;
  PorEquivalenceReport R =
      checkPorEquivalence(makeLyingFootprintConfig(), Opts);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_FALSE(R.Match);
  EXPECT_NE(R.Detail.find("missing under POR"), std::string::npos)
      << R.Detail;
  EXPECT_GT(R.FullOutcomes, R.PorOutcomes);
}

/// Two CPUs calling an event-free shared primitive whose DECLARED
/// footprint conflicts with itself across CPUs — an honest
/// over-approximation (the primitive touches nothing at all, so
/// declaring {x} is pessimistic, not a lie).  DPOR must treat the calls
/// as dependent and explore both orders, but the orders reconverge on
/// bit-identical snapshots (no events, no writes).
MachineConfigPtr makeOverApproxNopConfig(unsigned Cpus) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int onop();
      int t_main() {
        onop();
        onop();
        return 0;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Lonop");
  L->addShared("onop", makeConstPrim(0), Footprint::of({"x"}, {"x"}));
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "onop";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("onop.lasm", {&Client});
  for (ThreadId C = 1; C <= Cpus; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

TEST(PorTest, OverApproxFootprintsMatchFullExploration) {
  // Over-approximated footprints make DPOR explore orders that
  // reconverge on identical snapshots; the reduction degrades toward full
  // exploration but its outcome set must stay exactly the full
  // exploration's.
  MachineConfigPtr Cfg = makeOverApproxNopConfig(2);
  ExploreOptions Reduced;
  Reduced.Por = true;
  ExploreResult Res = exploreMachine(Cfg, Reduced);
  ASSERT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_TRUE(Res.Complete);
  EXPECT_TRUE(Res.PorApplied);

  ExploreResult Full = exploreMachine(Cfg, ExploreOptions());
  ASSERT_TRUE(Full.Ok) << Full.Violation;
  auto Key = [](const Outcome &O) {
    std::string K = logToString(O.FinalLog);
    for (const auto &[Tid, Rets] : O.Returns) {
      K += "|" + std::to_string(Tid) + ":";
      for (std::int64_t V : Rets)
        K += std::to_string(V) + ",";
    }
    return K;
  };
  std::set<std::string> KeysPor, KeysFull;
  for (const Outcome &O : Res.Outcomes)
    KeysPor.insert(Key(O));
  for (const Outcome &O : Full.Outcomes)
    KeysFull.insert(Key(O));
  EXPECT_EQ(KeysPor, KeysFull);
}

TEST(PorTest, TicketHarnessUnderPor) {
  // End-to-end: the full ticket-lock contextual refinement with POR on
  // both machines.  FairnessBound is ignored under POR, so the spinning
  // L0 acq is bounded by the trace-invariant per-CPU step cap instead.
  TicketLockLayers Layers = makeTicketLockLayers();
  static ClightModule M1;
  static ClightModule Client;
  M1 = cloneModule(Layers.M1);
  Client = makeTicketClient();

  ObjectHarness H;
  H.ObjectName = "ticket_lock_por";
  H.Underlay = Layers.L0;
  H.Modules = {&M1};
  H.Overlay = Layers.L1;
  H.R = Layers.R1;
  H.Client = &Client;
  H.Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  H.Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});
  H.ImplOpts.Por = true;
  H.ImplOpts.MaxParticipantSteps = 10;
  H.ImplOpts.MaxSteps = 512;
  H.ImplOpts.Invariant = ticketMutexInvariant;
  H.SpecOpts.Por = true;
  H.SpecOpts.MaxSteps = 512;

  HarnessOutcome Out = runObjectHarness(H);
  EXPECT_TRUE(Out.Report.Holds) << Out.Report.Counterexample;
  EXPECT_TRUE(Out.Report.SpecComplete);
  EXPECT_TRUE(Out.Report.ImplComplete);
  ASSERT_TRUE(Out.Layer.Cert != nullptr);
  EXPECT_TRUE(Out.Layer.Cert->Valid);
  EXPECT_TRUE(Out.Layer.Cert->CoverageComplete);
}

//===----------------------------------------------------------------------===//
// Truncated explorations must not mint certificates (satellites)
//===----------------------------------------------------------------------===//

TEST(PorTest, MaxSchedulesOneIsNotValid) {
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

TEST(PorTest, SpecOutcomeCapProducesDiagnosticNotFalseCounterexample) {
  // A capped spec outcome set used to surface as a bogus "impl outcome
  // not admitted" counterexample; it must instead be an explicit
  // truncation diagnostic naming MaxStoredOutcomes.
  ExploreOptions SpecOpts;
  SpecOpts.MaxStoredOutcomes = 1;
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

TEST(PorTest, ExplorerTruncationNamesTheBudget) {
  ExploreOptions Opts;
  Opts.MaxSchedules = 1;
  ExploreResult Res = exploreMachine(makeTickConfig(2, 1), Opts);
  ASSERT_TRUE(Res.Ok);
  EXPECT_FALSE(Res.Complete);
  EXPECT_NE(Res.Truncation.find("MaxSchedules"), std::string::npos)
      << Res.Truncation;
}
