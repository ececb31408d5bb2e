//===- objects/ObjectSpec.h - Atomic object specifications -----*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for *atomic* overlay interfaces: each method call appends
/// exactly one event and computes its return value from the replayed
/// shared state — the shape of every high-level strategy in the paper (§2:
/// "each invocation produces exactly one event in the log").  Methods may
/// also be blocking (acq on a held lock) or refuse a call outright (rel by
/// a non-holder: a protocol violation that makes the spec machine stuck).
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_OBJECTS_OBJECTSPEC_H
#define CCAL_OBJECTS_OBJECTSPEC_H

#include "core/LayerInterface.h"
#include "core/Replay.h"

#include <functional>
#include <optional>

namespace ccal {

/// What an atomic method does once the event is (tentatively) appended.
struct AtomicOutcome {
  enum class Kind {
    Ok,      ///< event committed, Ret returned
    Blocked, ///< cannot proceed yet; retried when the log grows
    Stuck,   ///< protocol violation; the machine faults
  };
  Kind K = Kind::Ok;
  std::int64_t Ret = 0;

  static AtomicOutcome ok(std::int64_t Ret = 0) { return {Kind::Ok, Ret}; }
  static AtomicOutcome blocked() { return {Kind::Blocked, 0}; }
  static AtomicOutcome stuck() { return {Kind::Stuck, 0}; }
};

/// Semantics of one atomic method: \p Call carries the caller, the
/// arguments and the fold of the shared state *before* the call; the
/// event `Tid.Name(Args)` is appended by the machine iff the outcome is
/// Ok.
using AtomicSemantics = std::function<AtomicOutcome(const PrimCall &Call)>;

/// Installs an atomic method into interface \p L: a shared primitive
/// emitting the single event `tid.Name(args)`, marked MayBlock since its
/// semantics may block.  \p Foot declares the method's footprint (see
/// core/Footprint.h); the default is opaque.
void addAtomicMethod(LayerInterface &L, const std::string &Name,
                     AtomicSemantics Sem,
                     Footprint Foot = Footprint::opaque());

/// Abstract lock state replayed from atomic `AcqKind`/`RelKind` events —
/// shared by the ticket and MCS lock specifications ("both share the same
/// high-level atomic specification", §6).
struct AbstractLockState {
  std::optional<ThreadId> Holder;
  std::uint64_t Acquisitions = 0;
  bool operator==(const AbstractLockState &) const = default;
};

/// Replayer over atomic lock events; stuck when acq happens while held or
/// rel by a non-holder (mutual exclusion as a replay invariant).
Replayer<AbstractLockState> makeAbstractLockReplayer(std::string AcqKind,
                                                     std::string RelKind);

/// Installs blocking atomic `acq`/`rel` methods into \p L and declares
/// the abstract lock replayer as a part of L's fold, which it returns; both
/// methods, and every other reader of the lock, read the holder from it.
/// Both read and write the single abstract location
/// `lock.<AcqKind>` (acq's blocking condition reads the holder, its event
/// writes it; rel likewise), so two operations on the same lock never
/// commute while operations on distinct locks always do.
FoldPart<AbstractLockState> addAtomicLock(LayerInterface &L,
                                          const std::string &AcqKind,
                                          const std::string &RelKind);

/// True when \p Tid holds the lock \p Lock (false once its replay is stuck).
bool holdsLock(const FoldPart<AbstractLockState> &Lock,
               const FoldValue &Fold, ThreadId Tid);

} // namespace ccal

#endif // CCAL_OBJECTS_OBJECTSPEC_H
