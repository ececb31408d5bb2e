//===- threads/Linking.h - Multithreaded linking (Thm 5.1) -----*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multithreaded linking theorem (Thm 5.1): `Lbtd[c] <=id Lhtd[c][Tc]`
/// — once the whole thread set is focused, the machine whose scheduling is
/// *implemented* (ready queue as linked local-queue code, concrete cswitch
/// transfers) behaves exactly like the machine with atomic scheduling
/// primitives.
///
/// checkMultithreadedLinking builds both machines from the *same* client
/// program: on Lbtd the scheduler module M_sched and the local-queue module
/// are linked in (so yield/spawn/thread_exit are code and the only events
/// are cswitch/texit), on Lhtd they stay atomic primitives.  The relation
/// maps cswitch to yield and erases the machine-internal events.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_THREADS_LINKING_H
#define CCAL_THREADS_LINKING_H

#include "threads/Sched.h"

namespace ccal {

/// Configuration of a linking check.
struct LinkingSetup {
  unsigned NumThreads = 2; ///< worker threads (plus the spawner thread 0)
  unsigned Rounds = 2;     ///< bump/yield rounds per worker
};

/// Result of the linking check, with the two machines' statistics.
struct LinkingReport {
  ContextualRefinementReport Refinement;
  CertPtr Cert;
};

/// The two machines Thm 5.1 relates: Lbtd[0], whose scheduler and ready
/// queue are linked code, and Lhtd[0][Tc] with atomic scheduling.
struct LinkingConfigs {
  ThreadedConfigPtr Low, High;
};
LinkingConfigs makeLinkingConfigs(const LinkingSetup &Setup);

/// Checks Thm 5.1 on the given setup (single CPU, as in the theorem's
/// statement Lbtd[c]).
LinkingReport checkMultithreadedLinking(const LinkingSetup &Setup);

} // namespace ccal

#endif // CCAL_THREADS_LINKING_H
