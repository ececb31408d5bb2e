//===- tests/threads/failclosed_test.cpp - Fail-closed checker matrix --------===//
//
// Every outcome-inclusion front end must fail closed: a truncated spec
// side, a truncated impl side, a cancellation raised before the run, and
// an implementation violation each give Holds=false, a Coverage that names
// the budget (or cancel reason) that cut the run short, and a certificate
// with CoverageComplete=false and Valid=false.  The contextual checker has
// its own truncation tests (PorTest); this matrix covers the threaded (§5)
// front end on the queuing lock and the multicore-linking (Thm 3.1) front
// end on a small hardware workload.
//
//===----------------------------------------------------------------------===//

#include "machine/HardwareMachine.h"
#include "machine/Soundness.h"
#include "threads/QueuingLock.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>

using namespace ccal;

namespace {

const char CancelText[] = "job timeout (fail-closed matrix)";

std::shared_ptr<std::atomic<bool>> raisedCancel() {
  return std::make_shared<std::atomic<bool>>(true);
}

/// The verdict every row of the matrix must produce.  \p CoverageNeedle is
/// empty for violations, which stop a run without exhausting a budget.
void expectFailClosed(const ContextualRefinementReport &R, const CertPtr &C,
                      const std::string &CoverageNeedle) {
  EXPECT_FALSE(R.Holds);
  EXPECT_FALSE(R.SpecComplete && R.ImplComplete);
  EXPECT_FALSE(R.Counterexample.empty());
  if (!CoverageNeedle.empty()) {
    EXPECT_NE(R.Coverage.find(CoverageNeedle), std::string::npos)
        << R.Coverage;
  }
  ASSERT_TRUE(C);
  EXPECT_FALSE(C->CoverageComplete);
  EXPECT_FALSE(C->Valid);
  ASSERT_FALSE(C->Notes.empty());
  EXPECT_EQ(C->Notes.front(), R.Counterexample);
}

// --- The threaded front end on the queuing lock (§5.4). ---

struct QlockRun {
  QueuingLockSetup Setup = makeQueuingLockSetup(2, 1, 1);
  ThreadedExploreOptions Impl, Spec;

  QlockRun() {
    Impl.FairnessBound = 2;
    Impl.MaxSteps = 1024;
    Spec.FairnessBound = 1u << 20;
    Spec.MaxSteps = 1024;
  }

  ContextualRefinementReport check() const {
    return checkThreadedRefinement(Setup.ImplConfig, Setup.SpecConfig,
                                   Setup.RImpl, Setup.RSpec, Impl, Spec);
  }

  CertPtr cert(const ContextualRefinementReport &R) const {
    return makeMachineCertificate("LogLift", Setup.Underlay->name(),
                                  "queuing_lock", Setup.Overlay->name(),
                                  Setup.RImpl.name(), R);
  }
};

// --- The multicore-linking front end (Thm 3.1). ---

/// Two CPUs, each doing a little private work around one shared tick.
/// The leaky variant adds a *private* primitive that reads the tick count
/// (a modeling bug): instruction interleavings become observable, so the
/// hardware machine produces outcomes the layer machine cannot.
MachineConfigPtr makeTickConfig(bool Leaky) {
  static ClightModule Honest = [] {
    ClightModule M = parseModuleOrDie("fc_honest", R"(
      extern int tick();
      int scratch = 0;
      int t_main() {
        scratch = scratch + 1;
        return tick() * 10 + scratch;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  static ClightModule Leak = [] {
    ClightModule M = parseModuleOrDie("fc_leaky", R"(
      extern int tick();
      extern int leak();
      int t_main() { return leak() * 100 + tick(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Lx86");
  L->addShared("tick", makeFetchIncPrim("tick"));
  L->addPrivate("leak", [](const PrimCall &Call)
                    -> std::optional<PrimResult> {
    PrimResult Res;
    Res.Ret = static_cast<std::int64_t>(Call.Fold->count(KindId("tick")));
    return Res;
  });
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = Leaky ? "fc.leaky" : "fc.ticks";
  Cfg->Layer = L;
  Cfg->Program =
      compileAndLink(Cfg->Name + ".lasm", {Leaky ? &Leak : &Honest});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

CertPtr linkCert(const ContextualRefinementReport &R) {
  return makeMachineCertificate("MulticoreLink", "Mx86(fc)",
                                "(hardware scheduling)", "Lx86[D](fc)", "id",
                                R);
}

} // namespace

TEST(FailClosedMatrixTest, ThreadedControlHolds) {
  // The matrix rows below only mean something if the untouched
  // configuration certifies.
  QlockRun Run;
  ContextualRefinementReport R = Run.check();
  ASSERT_TRUE(R.Holds) << R.Counterexample;
  EXPECT_EQ(R.Coverage, "exhaustive");
  EXPECT_TRUE(Run.cert(R)->Valid);
}

TEST(FailClosedMatrixTest, ThreadedTruncatedSpec) {
  QlockRun Run;
  Run.Spec.MaxSchedules = 1;
  ContextualRefinementReport R = Run.check();
  expectFailClosed(R, Run.cert(R), "MaxSchedules budget (1) exhausted");
  EXPECT_FALSE(R.SpecComplete);
}

TEST(FailClosedMatrixTest, ThreadedTruncatedImpl) {
  QlockRun Run;
  Run.Impl.MaxSchedules = 1;
  ContextualRefinementReport R = Run.check();
  expectFailClosed(R, Run.cert(R), "MaxSchedules budget (1) exhausted");
  EXPECT_TRUE(R.SpecComplete);
  EXPECT_FALSE(R.ImplComplete);
}

TEST(FailClosedMatrixTest, ThreadedCancelled) {
  QlockRun Run;
  for (ThreadedExploreOptions *O : {&Run.Impl, &Run.Spec}) {
    O->Cancel = raisedCancel();
    O->CancelReason = CancelText;
  }
  ContextualRefinementReport R = Run.check();
  expectFailClosed(R, Run.cert(R), CancelText);
}

TEST(FailClosedMatrixTest, ThreadedImplViolation) {
  QlockRun Run;
  Run.Impl.Invariant = [](const ThreadedMachine &M) -> std::string {
    return M.log().empty() ? "" : "matrix invariant refutes every step";
  };
  ContextualRefinementReport R = Run.check();
  expectFailClosed(R, Run.cert(R), "");
  EXPECT_TRUE(R.SpecComplete);
  EXPECT_NE(R.Counterexample.find("matrix invariant"), std::string::npos)
      << R.Counterexample;
}

TEST(FailClosedMatrixTest, MulticoreLinkControlHolds) {
  ContextualRefinementReport R =
      checkMulticoreLinking(makeTickConfig(false), /*FairnessBound=*/2);
  ASSERT_TRUE(R.Holds) << R.Counterexample;
  EXPECT_TRUE(linkCert(R)->Valid);
}

TEST(FailClosedMatrixTest, MulticoreLinkTruncatedSpec) {
  // The layer (spec) machine is explored first, so a one-schedule budget
  // cuts it short before any hardware schedule runs.
  ContextualRefinementReport R = checkMulticoreLinking(
      makeTickConfig(false), /*FairnessBound=*/2, /*MaxSchedules=*/1);
  expectFailClosed(R, linkCert(R), "MaxSchedules budget (1) exhausted");
  EXPECT_FALSE(R.SpecComplete);
}

TEST(FailClosedMatrixTest, MulticoreLinkTruncatedImpl) {
  // Enough budget for the two layer schedules, far too little for the
  // instruction interleavings.
  ContextualRefinementReport R = checkMulticoreLinking(
      makeTickConfig(false), /*FairnessBound=*/2, /*MaxSchedules=*/3);
  expectFailClosed(R, linkCert(R), "MaxSchedules budget (3) exhausted");
  EXPECT_TRUE(R.SpecComplete);
  EXPECT_FALSE(R.ImplComplete);
}

TEST(FailClosedMatrixTest, MulticoreLinkCancelled) {
  // checkMulticoreLinking has no cancellation hook of its own; drive the
  // engine it wraps on the same two machines.
  MachineConfigPtr Cfg = makeTickConfig(false);
  GenericExploreOptions<HardwareMachine> HwOpts;
  HwOpts.FairnessBound = 2;
  ExploreOptions LayerOpts;
  for (auto *C : {&HwOpts.Cancel, &LayerOpts.Cancel})
    *C = raisedCancel();
  HwOpts.CancelReason = LayerOpts.CancelReason = CancelText;
  ContextualRefinementReport R = checkOutcomeInclusion(
      HardwareMachine(Cfg), MultiCoreMachine(Cfg), EventMap::identity(),
      EventMap::identity(), HwOpts, LayerOpts);
  expectFailClosed(R, linkCert(R), CancelText);
}

TEST(FailClosedMatrixTest, MulticoreLinkImplViolation) {
  ContextualRefinementReport R =
      checkMulticoreLinking(makeTickConfig(true), /*FairnessBound=*/3);
  expectFailClosed(R, linkCert(R), "");
  EXPECT_TRUE(R.SpecComplete);
}
