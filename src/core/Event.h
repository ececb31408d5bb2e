//===- core/Event.h - Observable events ------------------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Observable events, the atoms of the paper's semantic model (§3.1,
/// Fig. 7).  Every shared-primitive call performed by a CPU/thread is
/// recorded as an event appended to the global log; hardware scheduling is
/// itself an event.  An event is written `i.kind(args)` in the paper, e.g.
/// `1.FAI_t` or `c.push(b, v)`.
///
/// The kind is stored interned (support/Intern.h): construction, equality
/// and footprint lookup are integer operations, and snapshotting a machine
/// no longer clones one heap string per logged event.  Certificates and
/// rendering resolve the string back via kind()/Kind.str(), so everything
/// serialized is unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CORE_EVENT_H
#define CCAL_CORE_EVENT_H

#include "support/Hash.h"
#include "support/Intern.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ccal {

/// Identifier of a participant in the concurrency game: a CPU id at the
/// multicore layers (§3) or a thread id at the multithreaded layers (§5).
using ThreadId = std::uint32_t;

/// The event kind reserved for hardware-scheduler transitions ("the
/// scheduler acts as a judge of the game", §2).  A `sched` event with
/// Tid = c records that control transferred to participant c.
inline const KindId SchedEventKind{"sched"};

/// One observable event `Tid.Kind(Args)`.
struct Event {
  ThreadId Tid = 0;
  KindId Kind;
  std::vector<std::int64_t> Args;

  Event() = default;
  Event(ThreadId Tid, KindId Kind, std::vector<std::int64_t> Args = {})
      : Tid(Tid), Kind(Kind), Args(std::move(Args)) {}

  /// Convenience constructor for a scheduling event transferring control to
  /// participant \p To.
  static Event sched(ThreadId To) { return Event(To, SchedEventKind); }

  bool isSched() const { return Kind == SchedEventKind; }

  /// The kind string (stable interned storage; reference never dangles).
  const std::string &kind() const { return Kind.str(); }

  bool operator==(const Event &O) const {
    return Tid == O.Tid && Kind == O.Kind && Args == O.Args;
  }
  bool operator!=(const Event &O) const { return !(*this == O); }

  /// Renders as "i.kind(a0, a1)"; scheduling events render as "->i".
  std::string toString() const;
};

/// Total order used to store events in ordered containers; the order has no
/// semantic meaning but must be stable across runs, so kinds compare by
/// string (KindId::operator<), never by interning-order id.
bool operator<(const Event &A, const Event &B);

/// Structural hash for outcome-dedup tables, built on support/Hash.h's
/// Hasher discipline; the kind enters through its cached content hash
/// (KindId::strHash), so the value is independent of interning order.
/// Inline (and header-only) because Log::push_back folds it into the
/// log's running hash on every append.
/// hashEvent with the kind's content hash \p KindHash already looked up.
inline std::uint64_t hashEvent(const Event &E, std::uint64_t KindHash) {
  Hasher H;
  H.u64(E.Tid).u64(KindHash).i64s(E.Args);
  return H.value();
}
inline std::uint64_t hashEvent(const Event &E) {
  return hashEvent(E, E.Kind.strHash());
}

} // namespace ccal

#endif // CCAL_CORE_EVENT_H
