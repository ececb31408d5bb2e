//===- threads/CondVar.h - Condition variables -----------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Condition variables over the certified queuing lock (§1/Fig. 1's
/// "Sync. Libs": QLock -> CV).  `cv_wait` atomically releases the monitor
/// lock and sleeps on the CV's queue, then re-acquires on wakeup (Mesa
/// semantics); `cv_signal` wakes one sleeper.
///
/// Verified properties (checked over *all* schedules by the explorer):
/// monitor mutual exclusion, absence of deadlock and lost wakeups for the
/// single-producer/single-consumer bounded buffer, and in-order delivery.
/// A deliberately under-synchronized two-producer variant demonstrates the
/// checker *finding* the classic lost-wakeup deadlock.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_THREADS_CONDVAR_H
#define CCAL_THREADS_CONDVAR_H

#include "lang/Ast.h"
#include "threads/ThreadMachine.h"

namespace ccal {

/// The CV module: cv_wait(q)/cv_signal(q) over cv_sleep/cv_wake and the
/// atomic queuing lock.
ClightModule makeCondVarModule();

/// Builds the CV/monitor underlay interface: atomic acq_q/rel_q, the
/// composite cv_sleep(q) (release monitor + sleep), cv_wake(q), get_tid,
/// and a `done` marker.  cv_wake reads the sleep queues from \p Sched
/// (the high scheduler part, made by makeHighSchedReplayer), which the
/// interface declares; its machines take it as their ThreadedConfig::Sched.
LayerPtr makeMonitorLayer(const FoldPart<SchedState> &Sched);

/// Outcome of a monitor property check.
struct MonitorCheck {
  bool Ok = false;
  std::string Violation;
  std::uint64_t SchedulesExplored = 0;
  std::uint64_t StatesExplored = 0;
};

/// One-slot bounded buffer with one producer and one consumer on a single
/// CPU: every schedule must terminate with the consumer observing exactly
/// the produced sequence, in order.
MonitorCheck checkBoundedBuffer(unsigned Items);

/// The under-synchronized variant (signal instead of broadcast with two
/// producers sharing one CV): the explorer must *find* a deadlock.
MonitorCheck checkBoundedBufferLostWakeup(unsigned Items);

} // namespace ccal

#endif // CCAL_THREADS_CONDVAR_H
