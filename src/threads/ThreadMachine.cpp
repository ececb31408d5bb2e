//===- threads/ThreadMachine.cpp - The multithreaded machine ------------------===//

#include "threads/ThreadMachine.h"

#include "support/Check.h"
#include "support/Text.h"

using namespace ccal;

SharedFold ThreadedConfig::fold() const {
  SharedFold F = Layer->fold();
  F.declare(*Sched);
  return F;
}

ThreadedMachine::ThreadedMachine(const ThreadedConfigPtr &CfgIn)
    : Cfg(CfgIn.get()) {
  CCAL_CHECK(Cfg && Cfg->Layer && Cfg->Program && Cfg->Program->Linked &&
                 Cfg->Sched,
             "threaded config needs layer, linked program, and scheduler");
  Fold = Cfg->fold().initial();
  std::vector<std::int64_t> Image = Cfg->Program->initialGlobals();
  for (const ThreadSpec &TS : Cfg->Threads) {
    auto [It, Inserted] = Threads.emplace(
        TS.Tid, Thr{Core(Cfg->Program, TS.Tid, TS.Items), TS.Cpu});
    CCAL_CHECK(Inserted, "duplicate thread id");
    if (!CpuMem.count(TS.Cpu))
      CpuMem.emplace(TS.Cpu, Image);
  }
  settle();
}

void ThreadedMachine::fault(ThreadId Tid, const std::string &Msg) {
  if (Err.empty())
    Err = strFormat("thread %u: %s", Tid, Msg.c_str());
}

bool ThreadedMachine::settle() {
  // Iterate until no CPU makes progress: a thread exit or resched event
  // changes the scheduler state of its own CPU only, but a wakeup executed
  // earlier can change any CPU, so loop over all of them.  View points
  // into the fold, so every append is followed by a break.
  bool Changed = true;
  while (Changed && Err.empty()) {
    Changed = false;
    const SchedState *View = Cfg->Sched->in(Fold);
    if (!View) {
      Err = "scheduler replay stuck on log: " + logToString(GlobalLog);
      return false;
    }
    for (auto &[Cpu, Mem] : CpuMem) {
      (void)Mem;
      auto CurIt = View->Current.find(Cpu);
      std::int64_t Cur = CurIt == View->Current.end() ? -1 : CurIt->second;

      if (Cur >= 0) {
        auto TIt = Threads.find(static_cast<ThreadId>(Cur));
        if (TIt == Threads.end()) {
          fault(static_cast<ThreadId>(Cur), "scheduler chose unknown thread");
          return false;
        }
        Thr &T = TIt->second;
        if (T.Exited) {
          Cur = -1; // fall through to dispatch below
        } else if (T.NeedsRun) {
          if (!runThread(TIt->first, T))
            return false;
          Changed = true;
          break; // the fold may have changed (exit events); re-read
        } else {
          continue; // parked at a shared primitive: explorer's turn
        }
      }

      if (Cur < 0) {
        // CPU has nothing current: dispatch the lowest-id unfinished,
        // non-sleeping thread, if any (the deterministic idle dispatcher;
        // both layers of Thm 5.1 share it).
        for (auto &[Tid, T] : Threads) {
          if (T.Cpu != Cpu || T.Exited || View->Sleeping.count(Tid))
            continue;
          emit({Event(Tid, ReschedEventKind)});
          Changed = true;
          break;
        }
        if (Changed)
          break;
      }
    }
  }
  return Err.empty();
}

bool ThreadedMachine::runThread(ThreadId Tid, Thr &T) {
  T.NeedsRun = false;
  std::string Why;
  const Core::Stop Stopped = T.Exec.runLocal(
      *Cfg->Layer, Cfg->SliceBudget, GlobalLog, Fold, CpuMem.at(T.Cpu), Why);
  if (Stopped == Core::Stop::Faulted) {
    fault(Tid, Why);
    return false;
  }
  if (Stopped == Core::Stop::Idle) {
    T.Exited = true;
    emit({Event(Tid, ThreadExitEventKind)});
  }
  return true;
}

bool ThreadedMachine::allIdle() const {
  for (const auto &[Tid, T] : Threads)
    if (!T.Exited)
      return false;
  return true;
}

void ThreadedMachine::schedulable(std::vector<ThreadId> &Out) const {
  Out.clear();
  const SchedState *View = Cfg->Sched->in(Fold);
  if (!View)
    return;
  for (const auto &[Cpu, Cur] : View->Current) {
    if (Cur < 0)
      continue;
    auto It = Threads.find(static_cast<ThreadId>(Cur));
    if (It != Threads.end() && It->second.Exec.pending() &&
        !It->second.Exec.blocked(Fold, CpuMem.at(Cpu)))
      Out.push_back(It->first);
  }
}

bool ThreadedMachine::step(ThreadId Tid) {
  if (!ok())
    return false;
  auto It = Threads.find(Tid);
  CCAL_CHECK(It != Threads.end(), "step: unknown thread");
  Thr &T = It->second;
  CCAL_CHECK(T.Exec.pending(),
             "step: thread is not parked at a shared primitive");
  const bool Exits = T.Exec.pending()->ExitsThread;
  std::string Why;
  if (!T.Exec.call(Fold, GlobalLog, Fold, CpuMem.at(T.Cpu), Why)) {
    fault(Tid, Why);
    return false;
  }
  // A thread whose primitive exits it never runs again (cswitch-out
  // without return, §5.1): its VM state is abandoned exactly like a kernel
  // context that is never loaded again.
  if (Exits)
    T.Exited = true;
  else
    T.NeedsRun = true;
  return settle();
}

void ThreadedMachine::returns(ReturnMap &Out) const {
  writeReturns(Out, [this](auto Put) {
    for (const auto &[Tid, T] : Threads)
      Put(Tid, T.Exec.returns());
  });
}

const std::vector<std::int64_t> &
ThreadedMachine::cpuMemory(ThreadId Cpu) const {
  auto It = CpuMem.find(Cpu);
  CCAL_CHECK(It != CpuMem.end(), "unknown CPU");
  return It->second;
}

ExploreResult ccal::exploreThreaded(ThreadedConfigPtr Cfg,
                                    const ThreadedExploreOptions &Opts) {
  ThreadedMachine Root(Cfg);
  return exploreGeneric(Root, Opts);
}

ContextualRefinementReport ccal::checkThreadedRefinement(
    ThreadedConfigPtr Impl, ThreadedConfigPtr Spec, const EventMap &RImpl,
    const EventMap &RSpec, const ThreadedExploreOptions &ImplOpts,
    const ThreadedExploreOptions &SpecOpts) {
  return checkOutcomeInclusion(ThreadedMachine(Impl), ThreadedMachine(Spec),
                               RImpl, RSpec, ImplOpts, SpecOpts);
}
