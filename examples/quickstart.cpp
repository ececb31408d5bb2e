//===- examples/quickstart.cpp - The full §2 / Fig. 3 / Fig. 5 story ------------===//
//
// Builds the paper's running example end to end with the public API:
//
//   1. the ticket-lock layer  L0 |-R1 M1 : L1      (Fun + LogLift),
//   2. the foo layer          L1 |-R2 M2 : L2      on top of it,
//   3. their vertical composition (Fig. 5's derivation),
//   4. the Compat side condition of Pcomp, discharged on the corpus of
//      logs gathered during exploration,
//   5. a replay of the §2 schedule "1,2,2,1,1,2,1,2,1,1,2,2" showing the
//      concrete log l'_g and its R1-image l_g.
//
// Run it; it prints the derivation tree and the logs.
//
//===----------------------------------------------------------------------===//

#include "compcertx/Linker.h"
#include "core/Calculus.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "machine/Explorer.h"
#include "objects/Harness.h"
#include "objects/ObjectSpec.h"
#include "objects/TicketLock.h"

#include <cstdio>

using namespace ccal;

namespace {

ClightModule makeFooModule() {
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

/// The atomic interface L2: foo happens in one shot; its return value is
/// replayed from the log (the k-th foo returns 11k: both counters were k).
/// Every fold counts events per kind, so foo reads k from the call's fold.
LayerPtr makeL2() {
  auto L2 = makeInterface("L2");
  const KindId Foo("foo");
  addAtomicMethod(*L2, "foo", [Foo](const PrimCall &Call) -> AtomicOutcome {
    std::int64_t K = static_cast<std::int64_t>(Call.Fold->count(Foo));
    return AtomicOutcome::ok(K * 10 + K);
  });
  return L2;
}

/// R2 maps the lock acquisition (foo's linearization point) to the atomic
/// foo event and erases the rest of the critical section.
EventMap makeR2() {
  return EventMap("R2", [](const Event &E) -> std::optional<Event> {
    if (E.Kind == KindId("acq"))
      return Event(E.Tid, KindId("foo"));
    return std::nullopt;
  });
}

} // namespace

int main() {
  std::printf("== ccal quickstart: certifying Fig. 3 bottom-up ==\n\n");

  // ---- Step 1: the ticket-lock layer (L0 |- M1 : L1) on CPUs {1,2}.
  ObjectHarness TicketH = makeTicketLockHarness(/*NumCpus=*/2);
  HarnessOutcome Ticket = runObjectHarness(TicketH);
  if (!Ticket.Report.Holds) {
    std::printf("ticket lock failed: %s\n",
                Ticket.Report.Counterexample.c_str());
    return 1;
  }
  std::printf("[1] %s\n    schedules=%llu obligations=%llu\n\n",
              Ticket.Layer.Cert->statement().c_str(),
              static_cast<unsigned long long>(Ticket.Report.SchedulesExplored),
              static_cast<unsigned long long>(
                  Ticket.Report.ObligationsChecked));

  // ---- Step 2: the foo layer (L1 |- M2 : L2), verified over the *atomic*
  // lock interface — no ticket-lock details appear in this proof.
  static ClightModule Foo = makeFooModule();
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("P", R"(
      extern int foo();
      int t_main() { return foo(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();

  ObjectHarness H;
  H.ObjectName = "foo";
  H.Underlay = Ticket.Layer.Overlay; // vertical composition: reuse L1
  H.Modules = {&Foo};
  H.Overlay = makeL2();
  H.R = makeR2();
  H.Client = &Client;
  H.Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  H.Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});
  H.ImplOpts.MaxSteps = 256;
  H.SpecOpts.FairnessBound = 1u << 20;
  H.SpecOpts.MaxSteps = 256;
  HarnessOutcome FooOut = runObjectHarness(H);
  if (!FooOut.Report.Holds) {
    std::printf("foo layer failed: %s\n",
                FooOut.Report.Counterexample.c_str());
    return 1;
  }
  std::printf("[2] %s\n\n", FooOut.Layer.Cert->statement().c_str());

  // ---- Step 3: vertical composition (the spine of Fig. 5).
  CertifiedLayer Stack = calculus::vcomp(Ticket.Layer, FooOut.Layer);
  std::printf("[3] Fig. 5 derivation:\n%s\n", Stack.Cert->tree().c_str());

  // ---- Step 4: the Compat side condition (Fig. 9) on real logs: the
  // ticket layer's implementation machine, explored again with its corpus
  // collected, and each log mapped through R1.
  static TicketLockLayers Layers = makeTicketLockLayers();
  {
    ExploreOptions Opts = TicketH.ImplOpts;
    Opts.CollectCorpus = true;
    ExploreResult Impl = exploreMachine(TicketH.implConfig(), Opts);
    std::vector<Log> Corpus;
    for (const Log &Lg : Impl.Corpus)
      Corpus.push_back(Layers.R1.apply(Lg));
    calculus::CompatReport Compat =
        calculus::checkCompat(*Layers.L1, {1}, {2}, Corpus);
    std::printf("[4] compat(L1[1], L1[2], L1[{1,2}]): %s over %llu "
                "explored logs\n\n",
                Compat.Holds ? "holds" : "FAILED",
                static_cast<unsigned long long>(Compat.LogsChecked));
  }

  // ---- Step 5: the §2 schedule, concretely.
  std::printf("[5] replaying the S2 schedule 1,2,2,1,1,2,1,2,1,1,2,2:\n");
  static ClightModule Ticket1;
  Ticket1 = cloneModule(Layers.M1);
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "fig3";
  Cfg->Layer = Layers.L0;
  Cfg->Program = compileAndLink("fig3.lasm", {&Client, &Foo, &Ticket1});
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});

  std::vector<ThreadId> Picks = {1, 2, 2, 1, 1, 2, 1, 2, 1, 1, 2, 2};
  size_t Next = 0;
  Outcome O = runSchedule(
      Cfg,
      [&](const std::vector<ThreadId> &Ready, const Log &) {
        return Next < Picks.size() ? Picks[Next++] : Ready.front();
      },
      nullptr);
  Log LgPrime(O.FinalLog.begin(), O.FinalLog.begin() + 12);
  std::printf("    l'_g = %s\n", logToString(LgPrime).c_str());
  std::printf("    R1(l'_g) = %s\n",
              logToString(Layers.R1.apply(LgPrime)).c_str());
  std::printf("    T1 returned %lld, T2 returned %lld\n\n",
              static_cast<long long>(O.Returns.at(1)[0]),
              static_cast<long long>(O.Returns.at(2)[0]));

  std::printf("== done: the whole stack is certified ==\n");
  return 0;
}
