//===- objects/McsLock.h - Certified MCS lock ------------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The MCS queue lock (Mellor-Crummey & Scott; verified layer by layer in
/// Kim et al., APLAS'17, using this toolkit — §6 evaluates it alongside the
/// ticket lock).  Each CPU owns a queue node (busy flag + next pointer);
/// acquisition swaps itself into the shared tail and spins on its *own*
/// flag — the cache-local spinning that makes MCS scale (§6's motivation).
///
/// Crucially, the MCS lock refines the *same* atomic interface L1 as the
/// ticket lock, so the two "can be freely interchanged without affecting
/// any proof in the higher-level modules using locks" (§6) — the mcs tests
/// re-certify the shared queue over the MCS lock to demonstrate exactly
/// that.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_OBJECTS_MCSLOCK_H
#define CCAL_OBJECTS_MCSLOCK_H

#include "objects/Harness.h"
#include "objects/ObjectSpec.h"
#include "objects/TicketLock.h"

namespace ccal {

/// The MCS node/tail state replayed from L0_mcs events.
struct McsState {
  std::int64_t Tail = -1;
  std::map<ThreadId, std::int64_t> Busy; ///< spin flag per CPU (1 = wait)
  std::map<ThreadId, std::int64_t> Next; ///< successor per CPU (-1 = none)
  std::optional<ThreadId> Holder;
  bool operator==(const McsState &) const = default;
};

/// Replays the MCS state; stuck on protocol violations (CAS success
/// without being tail, hold while held, ...).  This is the MCS part of
/// L0_mcs's fold, which its primitives and mcsMutexInvariant read.
Replayer<McsState> makeMcsReplayer();

/// All MCS layer pieces; the overlay L1 and relation target the same
/// atomic acq/rel events as the ticket lock.
using McsLockLayers = LockLayers;

McsLockLayers makeMcsLockLayers();

/// Mutual-exclusion invariant over the implementation machine, read from
/// the MCS part of the machine's fold.
std::string mcsMutexInvariant(const MultiCoreMachine &M);

/// Builds (without running) the harness certifyMcsLock runs — see
/// makeTicketLockHarness for why factories exist.
ObjectHarness makeMcsLockHarness(unsigned NumCpus, unsigned Rounds = 1);

/// Certifies `L0_mcs[{1..NumCpus}] |- mcs_lock : L1[{1..NumCpus}]`.
HarnessOutcome certifyMcsLock(unsigned NumCpus, unsigned Rounds = 1);

/// Release/acquire variant, annotated after the runtime lock
/// (src/runtime/RtMcsLock.h): queue mutations are acq_rel RMWs over the
/// coarse "mcs" location, the two spins (busy flag during acquire, next
/// pointer during release handoff) are memory-fair acquire loads, and f/g
/// are plain relaxed non-atomic counters protected by the lock.  The
/// coarse single-location footprint makes every queue write a release of
/// the *whole* queue, which keeps the synchronization chain intact at two
/// CPUs; see DESIGN.md §13 for why finer RA precision would need
/// per-field locations.  Layer name "L0ra_mcs" keeps certificates
/// disjoint from the SC ones.
McsLockLayers makeMcsLockLayersRa();

/// The RA harness: implementation machine under MemoryModel::Ra, SC spec.
ObjectHarness makeMcsLockHarnessRa(unsigned NumCpus, unsigned Rounds = 1);

/// Certifies the MCS lock under release/acquire memory.
HarnessOutcome certifyMcsLockRa(unsigned NumCpus, unsigned Rounds = 1);

} // namespace ccal

#endif // CCAL_OBJECTS_MCSLOCK_H
