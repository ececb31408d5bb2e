//===- threads/Sched.cpp - Thread schedulers ----------------------------------===//

#include "threads/Sched.h"

#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "support/Check.h"

#include <algorithm>

using namespace ccal;

namespace {
/// The schedulers' event kinds, interned once.
const KindId Spawn("spawn"), Yield("yield"), Sleep("sleep"), Wakeup("wakeup"),
    Cswitch("cswitch");
} // namespace

Replayer<SchedState>
ccal::makeHighSchedReplayer(std::map<ThreadId, ThreadId> CpuOf,
                            bool PreloadReady) {
  SchedState Init;
  for (const auto &[Tid, Cpu] : CpuOf) {
    if (!Init.Current.count(Cpu))
      Init.Current.emplace(Cpu, -1);
    if (PreloadReady)
      Init.Ready[Cpu].push_back(Tid);
  }

  auto Step = [CpuOf](SchedState &N, const Event &E) {
    auto CpuOfTid = [&CpuOf](ThreadId T) -> std::optional<ThreadId> {
      auto It = CpuOf.find(T);
      if (It == CpuOf.end())
        return std::nullopt;
      return It->second;
    };

    auto PopReady = [&N](ThreadId Cpu) -> std::int64_t {
      auto &Q = N.Ready[Cpu];
      if (Q.empty())
        return -1;
      ThreadId T = Q.front();
      Q.erase(Q.begin());
      return T;
    };

    if (E.Kind == Spawn) {
      if (E.Args.size() != 1)
        return false;
      ThreadId T = static_cast<ThreadId>(E.Args[0]);
      std::optional<ThreadId> Cpu = CpuOfTid(T);
      if (!Cpu)
        return false;
      // Set semantics: re-spawning a queued or running thread is a no-op.
      auto &Q = N.Ready[*Cpu];
      if (std::find(Q.begin(), Q.end(), T) == Q.end() &&
          N.Current[*Cpu] != static_cast<std::int64_t>(T))
        Q.push_back(T);
      return true;
    }
    if (E.Kind == Yield) {
      std::optional<ThreadId> Cpu = CpuOfTid(E.Tid);
      if (!Cpu || N.Current[*Cpu] != static_cast<std::int64_t>(E.Tid))
        return false; // only the current thread may yield
      N.Ready[*Cpu].push_back(E.Tid);
      N.Current[*Cpu] = PopReady(*Cpu);
      return true;
    }
    if (E.Kind == Sleep) {
      if (E.Args.empty())
        return false;
      std::optional<ThreadId> Cpu = CpuOfTid(E.Tid);
      if (!Cpu || N.Current[*Cpu] != static_cast<std::int64_t>(E.Tid))
        return false;
      N.Sleep[E.Args[0]].push_back(E.Tid);
      N.Sleeping.insert(E.Tid);
      N.Current[*Cpu] = PopReady(*Cpu);
      return true;
    }
    if (E.Kind == Wakeup) {
      if (E.Args.empty())
        return false;
      auto &Q = N.Sleep[E.Args[0]];
      if (Q.empty())
        return true; // waking an empty queue is a no-op
      ThreadId W = Q.front();
      Q.erase(Q.begin());
      N.Sleeping.erase(W);
      std::optional<ThreadId> Cpu = CpuOfTid(W);
      if (!Cpu)
        return false;
      if (N.Current[*Cpu] == -1)
        N.Current[*Cpu] = W; // idle CPU: dispatch directly
      else
        N.Ready[*Cpu].push_back(W);
      return true;
    }
    if (E.Kind == ThreadExitEventKind) {
      std::optional<ThreadId> Cpu = CpuOfTid(E.Tid);
      if (!Cpu || N.Current[*Cpu] != static_cast<std::int64_t>(E.Tid))
        return false;
      N.Current[*Cpu] = PopReady(*Cpu);
      return true;
    }
    if (E.Kind == ReschedEventKind) {
      std::optional<ThreadId> Cpu = CpuOfTid(E.Tid);
      if (!Cpu || N.Current[*Cpu] != -1)
        return false; // resched only fills an idle CPU
      auto &Q = N.Ready[*Cpu];
      auto It = std::find(Q.begin(), Q.end(), E.Tid);
      if (It != Q.end())
        Q.erase(It);
      N.Current[*Cpu] = E.Tid;
    }
    return true;
  };
  Replayer<SchedState> R(std::move(Init), std::move(Step));
  R.onlyKinds({Spawn, Yield, Sleep, Wakeup, ThreadExitEventKind,
               ReschedEventKind});
  return R;
}

Replayer<SchedState>
ccal::makeLowSchedReplayer(std::map<ThreadId, ThreadId> CpuOf) {
  SchedState Init;
  for (const auto &[Tid, Cpu] : CpuOf) {
    (void)Tid;
    Init.Current.emplace(Cpu, -1);
  }
  auto Step = [CpuOf](SchedState &V, const Event &E) {
    auto CpuIt = CpuOf.find(E.Tid);
    if (CpuIt == CpuOf.end())
      return true;
    std::int64_t &Cur = V.Current[CpuIt->second];
    if (E.Kind == Cswitch) {
      if (E.Args.size() != 1 || Cur != static_cast<std::int64_t>(E.Tid))
        return false;
      Cur = E.Args[0];
    } else if (E.Kind == ThreadExitEventKind) {
      if (Cur != static_cast<std::int64_t>(E.Tid))
        return false;
      Cur = E.Args.empty() ? -1 : E.Args[0];
    } else {
      if (Cur != -1)
        return false; // resched only fills an idle CPU
      Cur = E.Tid;
    }
    return true;
  };
  Replayer<SchedState> R(std::move(Init), std::move(Step));
  R.onlyKinds({Cswitch, ThreadExitEventKind, ReschedEventKind});
  return R;
}

std::optional<PrimResult> ccal::wakeupQueue(const FoldPart<SchedState> &Sched,
                                            const PrimCall &Call,
                                            std::int64_t Q) {
  const SchedState *S = Sched.in(*Call.Fold);
  if (!S)
    return std::nullopt;
  PrimResult Res;
  auto It = S->Sleep.find(Q);
  Res.Ret = (It == S->Sleep.end() || It->second.empty())
                ? -1
                : static_cast<std::int64_t>(It->second.front());
  Res.Events.push_back(Event(Call.Tid, Wakeup, {Q}));
  return Res;
}

FoldPart<SchedState>
ccal::installHighSchedPrims(LayerInterface &L,
                            std::map<ThreadId, ThreadId> CpuOf,
                            bool PreloadReady) {
  FoldPart<SchedState> Sched(makeHighSchedReplayer(CpuOf, PreloadReady));
  L.declareFold(Sched);

  // The primitives a thread may call only while it is current.
  auto Current = [Sched, CpuOf](const PrimCall &Call) -> bool {
    const SchedState *S = Sched.in(*Call.Fold);
    auto Cpu = CpuOf.find(Call.Tid);
    if (!S || Cpu == CpuOf.end())
      return false;
    auto Cur = S->Current.find(Cpu->second);
    return Cur != S->Current.end() &&
           Cur->second == static_cast<std::int64_t>(Call.Tid);
  };

  L.addShared("yield", [Current](const PrimCall &Call)
                  -> std::optional<PrimResult> {
    if (!Current(Call))
      return std::nullopt;
    PrimResult Res;
    Res.Events.push_back(Event(Call.Tid, Yield));
    return Res;
  });

  L.addShared("spawn", [](const PrimCall &Call)
                  -> std::optional<PrimResult> {
    if (Call.Args.size() != 1)
      return std::nullopt;
    PrimResult Res;
    Res.Events.push_back(Event(Call.Tid, Spawn, Call.Args));
    return Res;
  });

  L.addShared("sleep", [Current](const PrimCall &Call)
                  -> std::optional<PrimResult> {
    if (Call.Args.size() != 1 || !Current(Call))
      return std::nullopt;
    PrimResult Res;
    Res.Events.push_back(Event(Call.Tid, Sleep, Call.Args));
    return Res;
  });

  L.addShared("wakeup", [Sched](const PrimCall &Call)
                  -> std::optional<PrimResult> {
    if (Call.Args.size() != 1)
      return std::nullopt;
    return wakeupQueue(Sched, Call, Call.Args[0]);
  });

  {
    Primitive P;
    P.Name = "thread_exit";
    P.Shared = true;
    P.ExitsThread = true;
    P.Sem = [Current](const PrimCall &Call) -> std::optional<PrimResult> {
      if (!Current(Call))
        return std::nullopt;
      PrimResult Res;
      Res.Events.push_back(Event(Call.Tid, ThreadExitEventKind));
      return Res;
    };
    L.addPrim(std::move(P));
  }

  L.addPrivate("get_tid", makeSelfIdPrim());
  return Sched;
}

FoldPart<SchedState>
ccal::installLowSchedPrims(LayerInterface &L,
                           std::map<ThreadId, ThreadId> CpuOf) {
  FoldPart<SchedState> Sched(makeLowSchedReplayer(std::move(CpuOf)));
  L.declareFold(Sched);

  L.addShared("cswitch", [Sched](const PrimCall &Call)
                  -> std::optional<PrimResult> {
    if (Call.Args.size() != 1 || !Sched.in(*Call.Fold))
      return std::nullopt;
    PrimResult Res;
    Res.Events.push_back(Event(Call.Tid, Cswitch, Call.Args));
    return Res;
  });

  {
    Primitive P;
    P.Name = "texit";
    P.Shared = true;
    P.ExitsThread = true;
    P.Sem = [](const PrimCall &Call) -> std::optional<PrimResult> {
      if (Call.Args.size() != 1)
        return std::nullopt;
      PrimResult Res;
      Res.Events.push_back(
          Event(Call.Tid, ThreadExitEventKind, Call.Args));
      return Res;
    };
    L.addPrim(std::move(P));
  }

  L.addPrivate("get_tid", makeSelfIdPrim());
  return Sched;
}

ClightModule ccal::makeSchedModule() {
  ClightModule M = parseModuleOrDie("M_sched", R"(
    extern void enQ(int t);
    extern int deQ();
    extern int get_tid();
    extern void cswitch(int next);
    extern void texit(int next);

    void yield() {
      enQ(get_tid());
      cswitch(deQ());
    }

    void spawn(int t) { enQ(t); }

    void thread_exit() { texit(deQ()); }
  )");
  typeCheckOrDie(M);
  return M;
}
