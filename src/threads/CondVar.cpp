//===- threads/CondVar.cpp - Condition variables -------------------------------===//

#include "threads/CondVar.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "objects/ObjectSpec.h"
#include "threads/Sched.h"
#include "support/Text.h"

using namespace ccal;

namespace {
/// The monitor's event kinds, interned once.
const KindId RelQ("rel_q"), Sleep("sleep");
} // namespace

ClightModule ccal::makeCondVarModule() {
  ClightModule M = parseModuleOrDie("M_condvar", R"(
    extern void acq_q();
    extern void rel_q();
    extern void cv_sleep(int q);
    extern int cv_wake(int q);

    // Mesa-style wait: atomically release the monitor and sleep, then
    // re-acquire before returning (callers re-test their predicate).
    void cv_wait(int q) {
      cv_sleep(q);
      acq_q();
    }

    void cv_signal(int q) { cv_wake(q); }
  )");
  typeCheckOrDie(M);
  return M;
}

LayerPtr ccal::makeMonitorLayer(const FoldPart<SchedState> &Sched) {
  auto L = makeInterface("Lmonitor");
  FoldPart<AbstractLockState> Monitor = addAtomicLock(*L, "acq_q", "rel_q");
  L->declareFold(Sched);
  L->addShared("cv_sleep", [Monitor](const PrimCall &Call)
                   -> std::optional<PrimResult> {
    if (Call.Args.size() != 1 || !holdsLock(Monitor, *Call.Fold, Call.Tid))
      return std::nullopt; // must hold the monitor to wait
    PrimResult Res;
    Res.Events.push_back(Event(Call.Tid, RelQ));
    Res.Events.push_back(Event(Call.Tid, Sleep, Call.Args));
    return Res;
  });
  L->addShared("cv_wake", [Sched](const PrimCall &Call)
                   -> std::optional<PrimResult> {
    if (Call.Args.size() != 1)
      return std::nullopt;
    return wakeupQueue(Sched, Call, Call.Args[0]);
  });
  L->addShared("done", makeEventPrim("done"));
  L->addPrivate("get_tid", makeSelfIdPrim());
  return L;
}

namespace {

ClightModule makeBufferModule(bool SharedCv) {
  // SharedCv = true builds the under-synchronized variant: both sides
  // wait on and signal the same CV, the classic lost-wakeup bug.
  const char *WaitFull = SharedCv ? "0" : "0";
  const char *WaitEmpty = SharedCv ? "0" : "1";
  std::string Src = strFormat(R"(
    extern void acq_q();
    extern void rel_q();
    extern void cv_wait(int q);
    extern void cv_signal(int q);

    int buf_full = 0;
    int buf_val = 0;

    void put(int v) {
      acq_q();
      while (buf_full == 1) { cv_wait(%s); }
      buf_val = v;
      buf_full = 1;
      cv_signal(%s);
      rel_q();
    }

    int get() {
      acq_q();
      while (buf_full == 0) { cv_wait(%s); }
      int v = buf_val;
      buf_full = 0;
      cv_signal(%s);
      rel_q();
      return v;
    }
  )",
                              WaitFull, WaitEmpty, WaitEmpty, WaitFull);
  ClightModule M = parseModuleOrDie(
      SharedCv ? "M_buffer_shared_cv" : "M_buffer", Src);
  typeCheckOrDie(M);
  return M;
}

ClightModule makeBufferClient() {
  ClightModule M = parseModuleOrDie("P_buffer_client", R"(
    extern void put(int v);
    extern int get();
    extern void done(int v);

    int t_producer(int n, int base) {
      int i = 0;
      while (i < n) {
        put(base + i);
        i = i + 1;
      }
      return 0;
    }

    int t_consumer(int n) {
      int acc = 0;
      int i = 0;
      while (i < n) {
        acc = acc * 100 + get();
        i = i + 1;
      }
      done(acc);
      return acc;
    }
  )");
  typeCheckOrDie(M);
  return M;
}

MonitorCheck runBufferCheck(unsigned Items, unsigned Producers,
                            bool SharedCv) {
  std::map<ThreadId, ThreadId> CpuOf;
  for (ThreadId T = 0; T <= Producers; ++T)
    CpuOf.emplace(T, 0);

  ClightModule Buffer = makeBufferModule(SharedCv);
  ClightModule Cv = makeCondVarModule();
  ClightModule Client = makeBufferClient();

  auto Cfg = std::make_shared<ThreadedConfig>();
  Cfg->Name = SharedCv ? "buffer.sharedcv" : "buffer";
  Cfg->Sched.emplace(makeHighSchedReplayer(CpuOf));
  Cfg->Layer = makeMonitorLayer(*Cfg->Sched);
  Cfg->Program =
      compileAndLink(Cfg->Name + ".lasm", {&Client, &Buffer, &Cv});
  // Thread 0 consumes everything; threads 1..P produce Items each.
  Cfg->Threads.push_back(
      {0, 0, {{"t_consumer", {static_cast<std::int64_t>(Items * Producers)}}}});
  for (ThreadId T = 1; T <= Producers; ++T)
    Cfg->Threads.push_back(
        {T, 0,
         {{"t_producer",
           {static_cast<std::int64_t>(Items),
            static_cast<std::int64_t>(T * 10)}}}});

  ThreadedExploreOptions Opts;
  Opts.MaxSteps = 2048;
  ExploreResult Res = exploreThreaded(Cfg, Opts);

  MonitorCheck Out;
  Out.SchedulesExplored = Res.SchedulesExplored;
  Out.StatesExplored = Res.StatesExplored;
  if (!Res.Ok) {
    Out.Violation = Res.Violation;
    return Out;
  }
  // Every schedule must deliver all items; with one producer, in exactly
  // the produced order.
  for (const Outcome &O : Res.Outcomes) {
    auto It = O.Returns.find(0);
    if (It == O.Returns.end() || It->second.size() != 1) {
      Out.Violation = "consumer did not finish";
      return Out;
    }
    if (Producers == 1) {
      std::int64_t Expected = 0;
      for (unsigned I = 0; I != Items; ++I)
        Expected = Expected * 100 + (10 + I);
      if (It->second[0] != Expected) {
        Out.Violation = strFormat("out-of-order delivery: got %lld",
                                  static_cast<long long>(It->second[0]));
        return Out;
      }
    }
  }
  Out.Ok = true;
  return Out;
}

} // namespace

MonitorCheck ccal::checkBoundedBuffer(unsigned Items) {
  return runBufferCheck(Items, /*Producers=*/1, /*SharedCv=*/false);
}

MonitorCheck ccal::checkBoundedBufferLostWakeup(unsigned Items) {
  return runBufferCheck(Items, /*Producers=*/2, /*SharedCv=*/true);
}
