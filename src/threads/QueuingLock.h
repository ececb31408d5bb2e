//===- threads/QueuingLock.h - Certified queuing lock ----------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The queuing lock of §5.4 / Fig. 11: waiting threads sleep instead of
/// spinning.  The implementation mixes a certified spinlock (already
/// atomic at this layer — vertical composition again) with the scheduler's
/// sleep/wakeup primitives and the lock's `busy` word:
///
///   acq_q:  acq; if busy != -1 then sleep (atomically releasing the
///           spinlock) and, once woken, hold the queuing lock (it was
///           handed over); else busy = tid; rel.
///   rel_q:  acq; busy = wakeup();  (handoff, -1 frees)  rel.
///
/// The overlay is a blocking atomic acq_q/rel_q interface — the same shape
/// as the spinlock's L1, one more level up the Fig. 1 tower.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_THREADS_QUEUINGLOCK_H
#define CCAL_THREADS_QUEUINGLOCK_H

#include "lang/Ast.h"
#include "objects/ObjectSpec.h"
#include "threads/ThreadMachine.h"

namespace ccal {

/// The queuing-lock pieces.
struct QueuingLockSetup {
  ClightModule Module;
  ClightModule Client;
  LayerPtr Underlay;
  LayerPtr Overlay;
  EventMap RImpl;
  EventMap RSpec;
  ThreadedConfigPtr ImplConfig;
  ThreadedConfigPtr SpecConfig;
  std::map<ThreadId, ThreadId> CpuOf;
};

/// Builds the queuing-lock stack for \p ThreadsPerCpu worker threads on
/// each of \p Cpus CPUs, each doing \p Rounds lock/crit/unlock rounds.
QueuingLockSetup makeQueuingLockSetup(unsigned Cpus, unsigned ThreadsPerCpu,
                                      unsigned Rounds);

/// Certifies the queuing lock: contextual refinement into the blocking
/// atomic interface, plus the mutual-exclusion invariant on every state.
struct QueuingLockOutcome {
  ContextualRefinementReport Report;
  CertPtr Cert;
  std::uint64_t ImplLoC = 0;
};
QueuingLockOutcome certifyQueuingLock(unsigned Cpus = 2,
                                      unsigned ThreadsPerCpu = 1,
                                      unsigned Rounds = 2);

} // namespace ccal

#endif // CCAL_THREADS_QUEUINGLOCK_H
