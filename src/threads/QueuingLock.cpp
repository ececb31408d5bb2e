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
const KindId Rel("rel"), Sleep("sleep"), GetBusy("ql_get_busy"),
    SetBusy("ql_set_busy"), QHold("qlock_hold"), QWakeHold("qlock_wake_hold"),
    QPass("qlock_pass"), AcqQ("acq_q"), RelQ("rel_q"), Crit("crit"),
    Done("done");

/// The marker protocol, a part of the underlay's fold read by the
/// mutual-exclusion invariant: qlock_hold and qlock_wake_hold both acquire
/// the queuing lock and qlock_pass releases it.
const FoldPart<AbstractLockState> &markerFold() {
  static const FoldPart<AbstractLockState> Part = [] {
    Replayer<AbstractLockState> Lock =
        makeAbstractLockReplayer("qlock_hold", "qlock_pass");
    Replayer<AbstractLockState> R(
        Lock.initial(), [Lock](AbstractLockState &S, const Event &E) {
          return Lock.step(S, E.Kind == QWakeHold ? Event(E.Tid, QHold) : E);
        });
    return FoldPart<AbstractLockState>(R.onlyKinds({QHold, QWakeHold, QPass}));
  }();
  return Part;
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

  // --- Underlay: atomic spinlock + scheduler sleep/wakeup + busy word,
  // each read from its part of the underlay's fold.
  FoldPart<SchedState> Sched(makeHighSchedReplayer(Out.CpuOf));
  // The busy word: the argument of the last ql_set_busy.
  FoldPart<std::int64_t> Busy(
      Replayer<std::int64_t>(-1, [](std::int64_t &B, const Event &E) {
        if (E.Args.size() == 1)
          B = E.Args[0];
        return true;
      }).onlyKinds({SetBusy}));

  auto Under = makeInterface("Lhtd_qlock");
  FoldPart<AbstractLockState> Spin = addAtomicLock(*Under, "acq", "rel");
  Under->declareFold(Sched);
  Under->declareFold(Busy);
  Under->declareFold(markerFold());
  // sleep_q: atomically release the spinlock and sleep on queue 0 ("sleep
  // on queue i while holding the lock lk", §5.1).
  Under->addShared("sleep_q", [Spin](const PrimCall &Call)
                       -> std::optional<PrimResult> {
    if (!holdsLock(Spin, *Call.Fold, Call.Tid))
      return std::nullopt; // must hold the spinlock to sleep
    PrimResult Res;
    Res.Events.push_back(Event(Call.Tid, Rel));
    Res.Events.push_back(Event(Call.Tid, Sleep, {0}));
    return Res;
  });
  Under->addShared("wakeup_q", [Sched](const PrimCall &Call) {
    return wakeupQueue(Sched, Call, 0);
  });
  Under->addShared("ql_get_busy", [Spin, Busy](const PrimCall &Call)
                       -> std::optional<PrimResult> {
    if (!holdsLock(Spin, *Call.Fold, Call.Tid))
      return std::nullopt; // busy word is spinlock-protected
    PrimResult Res;
    Res.Ret = *Busy.in(*Call.Fold);
    Res.Events.push_back(Event(Call.Tid, GetBusy));
    return Res;
  });
  Under->addShared("ql_set_busy", [Spin](const PrimCall &Call)
                       -> std::optional<PrimResult> {
    if (Call.Args.size() != 1 || !holdsLock(Spin, *Call.Fold, Call.Tid))
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
  ImplCfg->Sched = Sched;

  auto SpecCfg = std::make_shared<ThreadedConfig>();
  SpecCfg->Name = "qlock.spec";
  SpecCfg->Layer = Out.Overlay;
  SpecCfg->Program = compileAndLink("qlock.spec.lasm", {&Out.Client});
  SpecCfg->Sched = Sched;

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

  // The queuing lock never spins, so every schedule terminates; a small
  // fairness bound keeps the (complete-for-that-bound) space tractable.
  ThreadedExploreOptions ImplOpts;
  ImplOpts.FairnessBound = 2;
  ImplOpts.MaxSteps = 1024;
  // Mutual exclusion of the queuing lock at the marker level, along every
  // state: the marker part is empty once its replay got stuck.
  ImplOpts.Invariant = [](const ThreadedMachine &M) -> std::string {
    return markerFold().in(M.fold())
               ? ""
               : "queuing-lock mutual exclusion violated";
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
