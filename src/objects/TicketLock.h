//===- objects/TicketLock.h - Certified ticket lock ------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's running example (§2, §4.1): the ticket lock.
///
///   L0:  FAI_t (fetch the next ticket), get_n (read "now serving"),
///        inc_n (serve the next ticket), hold (announce acquisition),
///        plus pass-through f and g — all atomic x86-level primitives whose
///        values replay from the log (Rticket).
///   M1:  acq/rel in ClightX, verbatim Fig. 3.
///   L1:  atomic blocking acq / rel (+ f, g).
///   R1:  i.hold -> i.acq, i.inc_n -> i.rel, other lock events erased —
///        exactly the relation of §2.
///
/// certifyTicketLock() runs the full §2/Fig. 5 story for a Fig. 3-style
/// client and returns the certified layer `L0[D] |-R1 M1 : L1[D]`.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_OBJECTS_TICKETLOCK_H
#define CCAL_OBJECTS_TICKETLOCK_H

#include "objects/Harness.h"
#include "objects/ObjectSpec.h"

namespace ccal {

/// The concrete ticket state (next ticket t, now-serving n) replayed from
/// L0 events — the paper's Rticket — plus the queue of fetched but
/// unserved tickets that the FIFO handout check reads.
struct TicketState {
  std::int64_t NextTicket = 0; ///< #FAI_t events
  std::int64_t NowServing = 0; ///< #inc_n events
  std::optional<ThreadId> Holder; ///< from hold/inc_n pairing
  /// The CPU of each fetched, not yet served ticket, oldest first.
  std::vector<ThreadId> Unserved;
  /// The first hold out of ticket order; "" while the handout is FIFO.
  std::string FifoViolation;
  bool operator==(const TicketState &) const = default;
};

/// Replays the ticket state; stuck when hold/inc_n violate the protocol.
/// This is the ticket part of L0's fold.
Replayer<TicketState> makeTicketReplayer();

/// Checks the starvation-freedom *order* property of the ticket lock: the
/// k-th acquisition (hold event) must belong to the CPU that fetched the
/// k-th ticket (FIFO handout); returns "" when it holds.  The ticket
/// replay run over \p L, so a log that violates mutual exclusion reports
/// that instead.
std::string checkTicketFifo(const Log &L);

/// The pieces of a certified lock layer: the underlay L0, the ClightX
/// module M1 implementing acq/rel over it, the atomic overlay L1, and the
/// relation R1 between their logs.  The ticket and MCS locks differ only
/// in L0, M1 and R1; both refine the same L1 (§6).
struct LockLayers {
  LayerPtr L0;
  ClightModule M1;
  LayerPtr L1;
  EventMap R1;
};
using TicketLockLayers = LockLayers;

/// Builds L0, M1, L1, and R1.
TicketLockLayers makeTicketLockLayers();

/// The Fig. 3 client: `void t_main() { foo-ish critical section }` — it
/// calls acq, f, g, rel directly so the ticket layer can be certified in
/// isolation; the foo module (M2) of Fig. 3 lives in the quickstart
/// example and tests.
ClightModule makeTicketClient();

/// Mutual-exclusion and FIFO-handout invariant over the implementation
/// machine, read from the ticket part of the machine's fold; returns ""
/// when it holds.
std::string ticketMutexInvariant(const MultiCoreMachine &M);

/// The harness every lock certification runs: each of \p NumCpus CPUs
/// runs the makeTicketClient client \p Rounds times over \p Layers, and
/// the implementation machine checks \p Invariant (certificate-keyed as
/// \p InvariantName) on every state under \p ImplModel.  The
/// harness owns its modules, so concurrent harnesses share no AST.
ObjectHarness
makeLockHarness(std::string ObjectName, const LockLayers &Layers,
                unsigned NumCpus, unsigned Rounds,
                std::string (*Invariant)(const MultiCoreMachine &),
                std::string InvariantName,
                MemoryModel ImplModel = MemoryModel::Sc);

/// Builds (without running) the harness certifyTicketLock runs: callers
/// that need to inject exploration knobs — the certd daemon threads a
/// cancel token and a Threads count into ImplOpts/SpecOpts — start here.
/// The returned harness owns its modules (ObjectHarness::Owned), so
/// concurrent harnesses never share mutable state.
ObjectHarness makeTicketLockHarness(unsigned NumCpus, unsigned Rounds = 1);

/// Certifies `L0[{1..NumCpus}] |- ticket_lock : L1[{1..NumCpus}]` with
/// each CPU performing \p Rounds acquire/release rounds.
HarnessOutcome certifyTicketLock(unsigned NumCpus, unsigned Rounds = 1);

/// Release/acquire variants.  Same primitive semantics and module, but the
/// L0 footprints carry the ordering annotations of the *real* runtime lock
/// (src/runtime/RtTicketLock.h): the ticket grab is an acq_rel RMW, the
/// now-serving spin is an acquire load (memory-fair, the spin-assume of
/// weak-memory model checking), the release bump is acq_rel, and the
/// critical-section counters f/g are plain relaxed non-atomic accesses —
/// protected by the lock, not by their own ordering.  The layer is named
/// "L0ra" ("L0ra_broken" for the twin) so its certificates never alias the
/// SC ones.
///
/// With \p BrokenGrab the ticket grab is demoted to the torn
/// relaxed-load/relaxed-store pair of rt::BrokenTicketLock: under
/// MemoryModel::Ra the stale read becomes enumerable, two CPUs can fetch
/// the same ticket, and exploration alone must refute the refinement with
/// a duplicate-ticket counterexample (the "ticket.mutex" invariant catches
/// the double hold).
TicketLockLayers makeTicketLockLayersRa(bool BrokenGrab = false);

/// The RA harness: makeTicketLockHarness with the annotated L0 and the
/// implementation machine running under MemoryModel::Ra.  The spec machine
/// stays SC — the atomic overlay has no weak behaviors to model.
ObjectHarness makeTicketLockHarnessRa(unsigned NumCpus, unsigned Rounds = 1,
                                      bool BrokenGrab = false);

/// Certifies the ticket lock under release/acquire memory.
HarnessOutcome certifyTicketLockRa(unsigned NumCpus, unsigned Rounds = 1,
                                   bool BrokenGrab = false);

/// The §4.1 starvation-freedom bound, measured: across *all* schedules of
/// the ticket-lock implementation machine, the worst-case number of events
/// between a CPU's FAI_t (taking a ticket) and its hold (acquiring) must
/// stay within `n x m x #CPU`, where n bounds the events a holder emits
/// per critical section and m is the scheduler fairness bound.
struct StarvationReport {
  std::uint64_t WorstWait = 0; ///< max events between FAI_t and hold
  std::uint64_t Bound = 0;     ///< n * m * #CPU
  std::uint64_t SchedulesExplored = 0;
  bool WithinBound = false;
  bool Ok = false; ///< exploration succeeded
  std::string Violation;
};
StarvationReport checkTicketStarvationFreedom(unsigned NumCpus,
                                              unsigned FairnessBound);

} // namespace ccal

#endif // CCAL_OBJECTS_TICKETLOCK_H
