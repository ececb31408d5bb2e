//===- tests/machine/litmus_test.cpp - Weak-memory litmus tests -----------------===//
//
// Classic litmus shapes (MP, SB, LB, CoRR, IRIW) run on the multicore
// machine under both memory models, with the full allowed-outcome set
// pinned against the RC11 reference semantics (our MemoryModel::Ra
// documents two strengthenings — SeqCst loads and atomic RMW reads always
// read the latest write — which these shapes do not distinguish).
//
// Encoding: a store to location x is the event-appending primitive wx
// (Writes = {x}); a load of x is rx, returning the number of wx events in
// the primitive's *visible* log (Reads = {x}) — so "x == 1" reads as "the
// one store to x is visible".  Observer programs fold their registers into
// the return value (a * 10 + b), and multi-observer outcomes concatenate
// per-CPU returns in CPU order (r3 * 100 + r4).

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "machine/Explorer.h"
#include "machine/MemoryModel.h"

#include <gtest/gtest.h>

#include <set>

using namespace ccal;

namespace {

/// Read/write primitive footprints for one location, with the given orders.
Footprint wfoot(const char *Loc, MemOrder W) {
  return Footprint::of({}, {Loc}).withOrders(MemOrder::Relaxed, W);
}
Footprint rfoot(const char *Loc, MemOrder R) {
  return Footprint::of({Loc}, {}).withOrders(R, MemOrder::Relaxed);
}

/// A two-location layer: wx/wy store, rx/ry load, with per-side orders.
LayerPtr makeXyLayer(MemOrder Wx, MemOrder Wy, MemOrder Rx, MemOrder Ry) {
  auto L = makeInterface("Llitmus");
  L->addShared("wx", makeEventPrim("wx"), wfoot("x", Wx));
  L->addShared("wy", makeEventPrim("wy"), wfoot("y", Wy));
  L->addShared("rx", makeReadCounterPrim("rx", "wx"), rfoot("x", Rx));
  L->addShared("ry", makeReadCounterPrim("ry", "wy"), rfoot("y", Ry));
  return L;
}

/// Compiles \p Source, runs \p Mains one per CPU (1-based, in order) under
/// \p Model, and returns the set of outcomes encoded as the base-100
/// concatenation of the listed observers' return values.
std::set<long long> outcomesOf(LayerPtr L, const std::string &Source,
                               const std::vector<std::string> &Mains,
                               const std::vector<ThreadId> &Observers,
                               MemoryModel Model) {
  static thread_local ClightModule M; // outlives the machine config
  M = parseModuleOrDie("litmus", Source);
  typeCheckOrDie(M);
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "litmus";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("litmus.lasm", {&M});
  Cfg->Model = Model;
  for (ThreadId C = 0; C < Mains.size(); ++C)
    Cfg->Work.emplace(C + 1,
                      std::vector<CpuWorkItem>{{Mains[C], {}}});
  ExploreOptions Opts;
  Opts.FairnessBound = 1u << 20; // straight-line programs, no spins
  ExploreResult Res = exploreMachine(Cfg, Opts);
  EXPECT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_TRUE(Res.Complete) << Res.Truncation;
  std::set<long long> Out;
  for (const Outcome &O : Res.Outcomes) {
    long long V = 0;
    for (ThreadId T : Observers)
      V = V * 100 + O.Returns.at(T).at(0);
    Out.insert(V);
  }
  return Out;
}

const std::string MpSource = R"(
  extern void wx();
  extern void wy();
  extern int rx();
  extern int ry();
  int w_main() { wx(); wy(); return 0; }
  int r_main() { int a = ry(); int b = rx(); return a * 10 + b; }
)";

const std::string SbSource = R"(
  extern void wx();
  extern void wy();
  extern int rx();
  extern int ry();
  int sb1_main() { wx(); return ry(); }
  int sb2_main() { wy(); return rx(); }
)";

const std::string LbSource = R"(
  extern void wx();
  extern void wy();
  extern int rx();
  extern int ry();
  int lb1_main() { int a = rx(); wy(); return a; }
  int lb2_main() { int b = ry(); wx(); return b; }
)";

const std::string CorrSource = R"(
  extern void wx();
  extern int rx();
  int w_main() { wx(); wx(); return 0; }
  int r_main() { int a = rx(); int b = rx(); return a * 10 + b; }
)";

const std::string IriwSource = R"(
  extern void wx();
  extern void wy();
  extern int rx();
  extern int ry();
  int wx_main() { wx(); return 0; }
  int wy_main() { wy(); return 0; }
  int r1_main() { int a = rx(); int b = ry(); return a * 10 + b; }
  int r2_main() { int c = ry(); int d = rx(); return c * 10 + d; }
)";

} // namespace

// --- MP (message passing): data x, flag y -------------------------------

TEST(LitmusMpTest, ReleaseAcquirePinsScSet) {
  // wy is a release store, ry an acquire load: seeing the flag implies
  // seeing the data, so flag-without-data (a=1, b=0 -> 10) is forbidden
  // and the outcome set collapses to the SC one.
  LayerPtr L = makeXyLayer(MemOrder::Relaxed, MemOrder::Release,
                           MemOrder::Relaxed, MemOrder::Acquire);
  const std::set<long long> Pinned = {0, 1, 11};
  EXPECT_EQ(outcomesOf(L, MpSource, {"w_main", "r_main"}, {2}, MemoryModel::Sc),
            Pinned);
  EXPECT_EQ(outcomesOf(L, MpSource, {"w_main", "r_main"}, {2}, MemoryModel::Ra),
            Pinned);
}

TEST(LitmusMpTest, RelaxedAdmitsStaleData) {
  // Fully relaxed: the load of x may ignore the store even after the flag
  // was seen; all four outcomes appear.
  LayerPtr L = makeXyLayer(MemOrder::Relaxed, MemOrder::Relaxed,
                           MemOrder::Relaxed, MemOrder::Relaxed);
  EXPECT_EQ(outcomesOf(L, MpSource, {"w_main", "r_main"}, {2}, MemoryModel::Ra),
            (std::set<long long>{0, 1, 10, 11}));
  // The SC backend never produces the weak outcome, annotations or not.
  EXPECT_EQ(outcomesOf(L, MpSource, {"w_main", "r_main"}, {2}, MemoryModel::Sc),
            (std::set<long long>{0, 1, 11}));
}

TEST(LitmusMpTest, NegativeControlMissingReleaseAdmitsForbiddenOutcome) {
  // The deliberate mis-annotation: acquire load, but the flag store is
  // demoted to relaxed.  The synchronization edge disappears and the
  // MP-forbidden outcome 10 must be admitted — this is the test that
  // proves the checker would catch a lock annotated weaker than its
  // implementation.
  LayerPtr L = makeXyLayer(MemOrder::Relaxed, MemOrder::Relaxed,
                           MemOrder::Relaxed, MemOrder::Acquire);
  std::set<long long> Out =
      outcomesOf(L, MpSource, {"w_main", "r_main"}, {2}, MemoryModel::Ra);
  EXPECT_TRUE(Out.count(10)) << "missing release must admit stale data";
  EXPECT_EQ(Out, (std::set<long long>{0, 1, 10, 11}));
}

// --- SB (store buffering) -----------------------------------------------

TEST(LitmusSbTest, RelaxedAndReleaseAcquireAdmitBothStale) {
  // SB is the shape release/acquire does NOT forbid: neither load reads
  // from the other thread's store, so 0/0 (both stale) is allowed under
  // RC11 unless the accesses are SC.
  const std::set<long long> Weak = {0, 1, 100, 101};
  LayerPtr Rlx = makeXyLayer(MemOrder::Relaxed, MemOrder::Relaxed,
                             MemOrder::Relaxed, MemOrder::Relaxed);
  EXPECT_EQ(outcomesOf(Rlx, SbSource, {"sb1_main", "sb2_main"}, {1, 2},
                       MemoryModel::Ra),
            Weak);
  LayerPtr RelAcq = makeXyLayer(MemOrder::Release, MemOrder::Release,
                                MemOrder::Acquire, MemOrder::Acquire);
  EXPECT_EQ(outcomesOf(RelAcq, SbSource, {"sb1_main", "sb2_main"}, {1, 2},
                       MemoryModel::Ra),
            Weak);
}

TEST(LitmusSbTest, SeqCstForbidsBothStale)
{
  // SC accesses (or the SC model) restore the interleaving semantics:
  // one of the two stores is first, so at least one load sees a store.
  const std::set<long long> Pinned = {1, 100, 101};
  LayerPtr Sc = makeXyLayer(MemOrder::SeqCst, MemOrder::SeqCst,
                            MemOrder::SeqCst, MemOrder::SeqCst);
  EXPECT_EQ(outcomesOf(Sc, SbSource, {"sb1_main", "sb2_main"}, {1, 2},
                       MemoryModel::Ra),
            Pinned);
  LayerPtr Rlx = makeXyLayer(MemOrder::Relaxed, MemOrder::Relaxed,
                             MemOrder::Relaxed, MemOrder::Relaxed);
  EXPECT_EQ(outcomesOf(Rlx, SbSource, {"sb1_main", "sb2_main"}, {1, 2},
                       MemoryModel::Sc),
            Pinned);
}

// --- LB (load buffering) ------------------------------------------------

TEST(LitmusLbTest, OutOfThinAirForbiddenUnderBothModels) {
  // 1/1 would need each load to read a write that is only performed later;
  // our reads-from enumeration ranges over the log so far, which is the
  // operational face of RC11's po ∪ rf acyclicity.  LB stays forbidden
  // even fully relaxed.
  const std::set<long long> Pinned = {0, 1, 100};
  LayerPtr Rlx = makeXyLayer(MemOrder::Relaxed, MemOrder::Relaxed,
                             MemOrder::Relaxed, MemOrder::Relaxed);
  EXPECT_EQ(outcomesOf(Rlx, LbSource, {"lb1_main", "lb2_main"}, {1, 2},
                       MemoryModel::Ra),
            Pinned);
  EXPECT_EQ(outcomesOf(Rlx, LbSource, {"lb1_main", "lb2_main"}, {1, 2},
                       MemoryModel::Sc),
            Pinned);
}

// --- CoRR (coherence of read-read) --------------------------------------

TEST(LitmusCorrTest, ReadsNeverGoBackwards) {
  // Two relaxed loads of the same location: the second may not observe
  // *fewer* writes than the first (per-location view fronts only advance),
  // so a <= b is pinned; everything coherent appears.
  const std::set<long long> Pinned = {0, 1, 2, 11, 12, 22};
  LayerPtr Rlx = makeXyLayer(MemOrder::Relaxed, MemOrder::Relaxed,
                             MemOrder::Relaxed, MemOrder::Relaxed);
  EXPECT_EQ(outcomesOf(Rlx, CorrSource, {"w_main", "r_main"}, {2},
                       MemoryModel::Ra),
            Pinned);
  EXPECT_EQ(outcomesOf(Rlx, CorrSource, {"w_main", "r_main"}, {2},
                       MemoryModel::Sc),
            Pinned);
}

// --- IRIW (independent reads of independent writes) ---------------------

TEST(LitmusIriwTest, ReleaseAcquireAdmitsDisagreeingReaders) {
  // The two observers may disagree on the order of the two independent
  // stores (r1 = 10, r2 = 10): release/acquire gives no total store
  // order.  Pinned superset-free: the weak outcome 10*100+10 = 1010 is in,
  // and under the SC model it is out.
  LayerPtr RelAcq = makeXyLayer(MemOrder::Release, MemOrder::Release,
                                MemOrder::Acquire, MemOrder::Acquire);
  std::set<long long> Ra =
      outcomesOf(RelAcq, IriwSource,
                 {"wx_main", "wy_main", "r1_main", "r2_main"}, {3, 4},
                 MemoryModel::Ra);
  EXPECT_TRUE(Ra.count(1010)) << "RA must admit disagreeing readers";
  std::set<long long> Sc =
      outcomesOf(RelAcq, IriwSource,
                 {"wx_main", "wy_main", "r1_main", "r2_main"}, {3, 4},
                 MemoryModel::Sc);
  EXPECT_FALSE(Sc.count(1010));
  // RA admits every SC outcome (variant 0 is the all-latest choice).
  for (long long V : Sc)
    EXPECT_TRUE(Ra.count(V)) << V;
}

TEST(LitmusIriwTest, SeqCstLoadsRestoreAgreement) {
  // With SC loads both readers read the latest store in modification
  // order, which restores a total order on what they can see — the
  // documented SeqCst strengthening of MemoryModel::Ra.
  LayerPtr ScLoads = makeXyLayer(MemOrder::Release, MemOrder::Release,
                                 MemOrder::SeqCst, MemOrder::SeqCst);
  std::set<long long> Out =
      outcomesOf(ScLoads, IriwSource,
                 {"wx_main", "wy_main", "r1_main", "r2_main"}, {3, 4},
                 MemoryModel::Ra);
  EXPECT_FALSE(Out.count(1010));
}
