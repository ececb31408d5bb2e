//===- threads/Sched.h - Thread schedulers ---------------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The certified scheduling layers of §5.1/§5.2:
///
///   * the *high* scheduler replay `Rsched` interprets atomic scheduling
///     events (spawn / yield / sleep / wakeup / texit / resched) over
///     abstract per-CPU ready queues and shared sleep queues — the
///     interface Lhtd[c][Tc];
///
///   * the *low* scheduler replay interprets concrete context-switch
///     events (cswitch / texit) — the interface Lbtd[c], where the ready
///     queue lives in CPU-local memory and is manipulated by linked
///     local-queue *code*;
///
///   * the scheduler module M_sched implements yield/spawn/thread_exit in
///     ClightX over the local-queue module plus the cswitch primitive.
///
/// Both replays fold the log into a SchedState, as a declared part that
/// the primitives and the machine (ThreadedConfig::Sched) read.
/// threads/Linking.h uses both to check the multithreaded linking theorem
/// (Thm 5.1).
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_THREADS_SCHED_H
#define CCAL_THREADS_SCHED_H

#include "core/Replay.h"
#include "lang/Ast.h"
#include "threads/ThreadMachine.h"

namespace ccal {

/// Builds the high-level scheduler replay `Rsched` over the given
/// thread->CPU placement.  Event protocol:
///   t.spawn(t'):   rdq(cpu(t')) += t'
///   t.yield:       rdq(cpu) += t; cur = pop rdq
///   t.sleep(q):    slpq(q) += t;  cur = pop rdq or -1
///   t.wakeup(q):   w = pop slpq(q); if cpu(w) idle -> cur(cpu(w)) = w
///                  else rdq(cpu(w)) += w
///   t.texit:       cur = pop rdq or -1
///   t.resched:     cur(cpu(t)) = t (idle dispatcher), t removed from rdq
/// When \p PreloadReady is true every thread starts in its CPU's ready
/// queue (the usual case); when false, threads must be spawn()ed (the
/// Thm 5.1 linking demo, where the low level's ready queue in memory also
/// starts empty).  spawn has set semantics: re-spawning a queued or
/// running thread is a no-op, mirroring the local-queue module's inq flag.
Replayer<SchedState> makeHighSchedReplayer(std::map<ThreadId, ThreadId> CpuOf,
                                           bool PreloadReady = true);

/// Builds the low-level scheduler replay of Lbtd[c], which keeps only
/// Current: cur(cpu) follows cswitch/texit(next) events verbatim, and
/// resched dispatches on idle CPUs.
Replayer<SchedState> makeLowSchedReplayer(std::map<ThreadId, ThreadId> CpuOf);

/// Installs the atomic scheduling primitives (yield, spawn, thread_exit,
/// sleep, wakeup) into \p L and declares the high replay as a part of
/// L's fold, which it returns; yield, sleep and thread_exit are stuck
/// unless the caller is current.  `sleep(q)` emits only the sleep event;
/// lock layers that need release-and-sleep install their own composite.
FoldPart<SchedState> installHighSchedPrims(LayerInterface &L,
                                           std::map<ThreadId, ThreadId> CpuOf,
                                           bool PreloadReady = true);

/// Installs the low-level primitives (cswitch, texit, get_tid) into \p L
/// and declares the low replay as a part of L's fold; cswitch gets stuck
/// once that replay is.  Returns the declared part.
FoldPart<SchedState> installLowSchedPrims(LayerInterface &L,
                                          std::map<ThreadId, ThreadId> CpuOf);

/// The semantics of waking sleep queue \p Q on behalf of \p Call: the
/// event `wakeup(Q)`, returning the thread it wakes (-1 for an empty
/// queue), read from \p Sched.  Stuck once the scheduler replay is.
std::optional<PrimResult> wakeupQueue(const FoldPart<SchedState> &Sched,
                                      const PrimCall &Call, std::int64_t Q);

/// The scheduler module: yield/spawn/thread_exit over local-queue code and
/// cswitch/texit primitives (link with makeLocalQueueModule()).
ClightModule makeSchedModule();

} // namespace ccal

#endif // CCAL_THREADS_SCHED_H
