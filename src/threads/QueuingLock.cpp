//===- threads/QueuingLock.cpp - Certified queuing lock -----------------------===//

#include "threads/QueuingLock.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "objects/Harness.h"
#include "threads/Sched.h"
#include "support/Text.h"

using namespace ccal;

namespace {

/// The queuing lock's event kinds, interned once.
const KindId Rel("rel"), Sleep("sleep"), Wakeup("wakeup"),
    GetBusy("ql_get_busy"), SetBusy("ql_set_busy"), QHold("qlock_hold"),
    QWakeHold("qlock_wake_hold"), QPass("qlock_pass"),
    QHoldAny("qlock_hold_any"), AcqQ("acq_q"), RelQ("rel_q"), Crit("crit"),
    Done("done");

/// Replays the queuing lock's busy word from ql_set_busy events.
std::int64_t replayBusy(const Log &L) {
  std::int64_t Busy = -1;
  for (const Event &E : L)
    if (E.Kind == SetBusy && E.Args.size() == 1)
      Busy = E.Args[0];
  return Busy;
}

ClightModule makeQueuingLockModule() {
  // Fig. 11, with the ghost commit markers made explicit (qlock_hold /
  // qlock_wake_hold / qlock_pass) and the single lock index dropped.
  ClightModule M = parseModuleOrDie("M_queuing_lock", R"(
    extern void acq();
    extern void rel();
    extern void sleep_q();
    extern int wakeup_q();
    extern int ql_get_busy();
    extern void ql_set_busy(int v);
    extern int get_tid();
    extern void qlock_hold();
    extern void qlock_wake_hold();
    extern void qlock_pass();

    void acq_q() {
      acq();
      if (ql_get_busy() != -1) {
        sleep_q();
        qlock_wake_hold();
      } else {
        ql_set_busy(get_tid());
        qlock_hold();
        rel();
      }
    }

    void rel_q() {
      acq();
      qlock_pass();
      ql_set_busy(wakeup_q());
      rel();
    }
  )");
  typeCheckOrDie(M);
  return M;
}

ClightModule makeQueuingLockClient() {
  ClightModule M = parseModuleOrDie("P_qlock_client", R"(
    extern void acq_q();
    extern void rel_q();
    extern int crit();
    extern void done(int v);

    int t_main(int rounds) {
      int acc = 0;
      int i = 0;
      while (i < rounds) {
        acq_q();
        acc = acc * 100 + crit();
        rel_q();
        i = i + 1;
      }
      done(acc);
      return acc;
    }
  )");
  typeCheckOrDie(M);
  return M;
}

} // namespace

QueuingLockSetup ccal::makeQueuingLockSetup(unsigned Cpus,
                                            unsigned ThreadsPerCpu,
                                            unsigned Rounds) {
  QueuingLockSetup Out;
  Out.Module = makeQueuingLockModule();
  Out.Client = makeQueuingLockClient();

  for (ThreadId Cpu = 0; Cpu != Cpus; ++Cpu)
    for (unsigned K = 0; K != ThreadsPerCpu; ++K)
      Out.CpuOf.emplace(Cpu * ThreadsPerCpu + K, Cpu);

  // --- Underlay: atomic spinlock + scheduler sleep/wakeup + busy word.
  Replayer<AbstractLockState> SpinR = makeAbstractLockReplayer("acq", "rel");
  Replayer<HighSchedState> SchedR = makeHighSchedReplayer(Out.CpuOf);

  auto Under = makeInterface("Lhtd_qlock");
  addAtomicLock(*Under, "acq", "rel");
  // sleep_q: atomically release the spinlock and sleep on queue 0 ("sleep
  // on queue i while holding the lock lk", §5.1).
  Under->addShared("sleep_q", [SpinR](const PrimCall &Call)
                       -> std::optional<PrimResult> {
    std::optional<AbstractLockState> S = SpinR.replay(*Call.L);
    if (!S || !S->Holder || *S->Holder != Call.Tid)
      return std::nullopt; // must hold the spinlock to sleep
    PrimResult Res;
    Res.Events.push_back(Event(Call.Tid, Rel));
    Res.Events.push_back(Event(Call.Tid, Sleep, {0}));
    return Res;
  });
  Under->addShared("wakeup_q", [SchedR](const PrimCall &Call)
                       -> std::optional<PrimResult> {
    std::optional<HighSchedState> S = SchedR.replay(*Call.L);
    if (!S)
      return std::nullopt;
    PrimResult Res;
    auto It = S->Sleep.find(0);
    Res.Ret = (It == S->Sleep.end() || It->second.empty())
                  ? -1
                  : static_cast<std::int64_t>(It->second.front());
    Res.Events.push_back(Event(Call.Tid, Wakeup, {0}));
    return Res;
  });
  Under->addShared("ql_get_busy", [SpinR](const PrimCall &Call)
                       -> std::optional<PrimResult> {
    std::optional<AbstractLockState> S = SpinR.replay(*Call.L);
    if (!S || !S->Holder || *S->Holder != Call.Tid)
      return std::nullopt; // busy word is spinlock-protected
    PrimResult Res;
    Res.Ret = replayBusy(*Call.L);
    Res.Events.push_back(Event(Call.Tid, GetBusy));
    return Res;
  });
  Under->addShared("ql_set_busy", [SpinR](const PrimCall &Call)
                       -> std::optional<PrimResult> {
    if (Call.Args.size() != 1)
      return std::nullopt;
    std::optional<AbstractLockState> S = SpinR.replay(*Call.L);
    if (!S || !S->Holder || *S->Holder != Call.Tid)
      return std::nullopt;
    PrimResult Res;
    Res.Events.push_back(Event(Call.Tid, SetBusy, Call.Args));
    return Res;
  });
  Under->addShared("qlock_hold", makeEventPrim("qlock_hold"));
  Under->addShared("qlock_wake_hold", makeEventPrim("qlock_wake_hold"));
  Under->addShared("qlock_pass", makeEventPrim("qlock_pass"));
  Under->addShared("crit", makeFetchIncPrim("crit"));
  Under->addShared("done", makeEventPrim("done"));
  Under->addPrivate("get_tid", makeSelfIdPrim());
  Out.Underlay = Under;

  // --- Overlay: blocking atomic acq_q/rel_q.
  auto Over = makeInterface("Lqlock");
  addAtomicLock(*Over, "acq_q", "rel_q");
  Over->addShared("crit", makeFetchIncPrim("crit"));
  Over->addShared("done", makeEventPrim("done"));
  Out.Overlay = Over;

  Out.RImpl =
      EventMap("Rqlock", [](const Event &E) -> std::optional<Event> {
        if (E.Kind == QHold || E.Kind == QWakeHold)
          return Event(E.Tid, AcqQ);
        if (E.Kind == QPass)
          return Event(E.Tid, RelQ);
        if (E.Kind == Crit || E.Kind == Done)
          return E;
        return std::nullopt;
      });
  Out.RSpec =
      EventMap("RqlockSpec", [](const Event &E) -> std::optional<Event> {
        if (E.Kind == ThreadExitEventKind || E.Kind == ReschedEventKind)
          return std::nullopt;
        return E;
      });

  // --- Machines.
  auto ImplCfg = std::make_shared<ThreadedConfig>();
  ImplCfg->Name = "qlock.impl";
  ImplCfg->Layer = Out.Underlay;
  ImplCfg->Program =
      compileAndLink("qlock.impl.lasm", {&Out.Client, &Out.Module});
  ImplCfg->Sched = makeHighSchedFn(Out.CpuOf);

  auto SpecCfg = std::make_shared<ThreadedConfig>();
  SpecCfg->Name = "qlock.spec";
  SpecCfg->Layer = Out.Overlay;
  SpecCfg->Program = compileAndLink("qlock.spec.lasm", {&Out.Client});
  SpecCfg->Sched = makeHighSchedFn(Out.CpuOf);

  for (const auto &[Tid, Cpu] : Out.CpuOf) {
    ThreadSpec TS;
    TS.Tid = Tid;
    TS.Cpu = Cpu;
    TS.Items.push_back({"t_main", {static_cast<std::int64_t>(Rounds)}});
    ImplCfg->Threads.push_back(TS);
    SpecCfg->Threads.push_back(TS);
  }
  Out.ImplConfig = ImplCfg;
  Out.SpecConfig = SpecCfg;

  // Keep the parsed modules alive: configs reference only compiled code,
  // so moving the setup out is safe.
  return Out;
}

QueuingLockOutcome ccal::certifyQueuingLock(unsigned Cpus,
                                            unsigned ThreadsPerCpu,
                                            unsigned Rounds) {
  QueuingLockSetup Setup =
      makeQueuingLockSetup(Cpus, ThreadsPerCpu, Rounds);

  // Mutual exclusion of the queuing lock at the marker level: the marker
  // events must satisfy the abstract lock protocol along every state.
  Replayer<AbstractLockState> MarkerR =
      makeAbstractLockReplayer("qlock_hold_any", "qlock_pass");
  // qlock_hold and qlock_wake_hold are both acquisitions; normalize first.
  EventMap Normalize("norm", [](const Event &E) -> std::optional<Event> {
    if (E.Kind == QHold || E.Kind == QWakeHold)
      return Event(E.Tid, QHoldAny);
    return E;
  });

  // The queuing lock never spins, so every schedule terminates; a small
  // fairness bound keeps the (complete-for-that-bound) space tractable.
  ThreadedExploreOptions ImplOpts;
  ImplOpts.FairnessBound = 2;
  ImplOpts.MaxSteps = 1024;
  ImplOpts.Invariant =
      [MarkerR, Normalize](const ThreadedMachine &M) -> std::string {
    if (!MarkerR.wellFormed(Normalize.apply(M.log())))
      return "queuing-lock mutual exclusion violated";
    return "";
  };
  ImplOpts.InvariantName = "qlock.mutex";
  // The spec machine must admit every schedule the implementation's
  // mapped behaviors need, so its fairness bound is looser.
  // The atomic spec machine never spins, so every schedule terminates and
  // no fairness pruning is needed (pruning would wrongly shrink the set of
  // admissible spec behaviors).
  ThreadedExploreOptions SpecOpts;
  SpecOpts.FairnessBound = 1u << 20;
  SpecOpts.MaxSteps = 1024;

  QueuingLockOutcome Out;
  Out.Report =
      checkThreadedRefinement(Setup.ImplConfig, Setup.SpecConfig,
                              Setup.RImpl, Setup.RSpec, ImplOpts, SpecOpts);
  Out.ImplLoC = moduleLoC(Setup.Module);

  Out.Cert = makeMachineCertificate("LogLift", Setup.Underlay->name(),
                                    "queuing_lock", Setup.Overlay->name(),
                                    Setup.RImpl.name(), Out.Report);
  return Out;
}
