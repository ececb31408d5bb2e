//===- core/Footprint.h - Step footprints over shared locations -*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Read/write footprints over abstract shared locations, with the memory
/// orders of their accesses.
///
/// Every shared primitive's observable behavior is a function of the log;
/// a footprint names which *parts* of that replayed shared state the
/// primitive reads and writes, as free-form location strings ("tkt.next",
/// "lock.acq", ...).  Footprints have two readers: the release/acquire
/// model's reads-from enumeration, which takes a step's locations and
/// orders to decide which writes each read may observe
/// (machine/MemoryModel.h), and certificate keys, which fold every
/// primitive's declared footprint (cert/CertKey.h).
/// An Opaque footprint ("unknown effects") is the default for undeclared
/// primitives.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CORE_FOOTPRINT_H
#define CCAL_CORE_FOOTPRINT_H

#include "core/Log.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace ccal {

/// C11-style memory order of a primitive's shared accesses.  The default
/// everywhere is SeqCst, which is exactly the pre-memory-model semantics:
/// a footprint whose orders were never touched behaves — and hashes, and
/// certifies — identically to one built before orders existed.
enum class MemOrder : std::uint8_t {
  Relaxed,
  Acquire,
  Release,
  AcqRel,
  SeqCst,
};

const char *memOrderName(MemOrder O);

/// Declared read/write set of one step over abstract shared locations.
struct Footprint {
  /// Sorted, duplicate-free location names (use Footprint::of to build).
  std::vector<std::string> Reads;
  std::vector<std::string> Writes;

  /// Unknown effects: conflicts with every non-local footprint.
  bool Opaque = false;

  /// Memory order of the primitive's reads (resp. writes) of its shared
  /// locations.  One order per side, not per location: our primitives are
  /// small enough that a single annotation covers every location they
  /// touch, and a per-location map would complicate hashing for nothing.
  MemOrder ReadOrd = MemOrder::SeqCst;
  MemOrder WriteOrd = MemOrder::SeqCst;

  /// When a primitive both reads and writes a location, Atomic means the
  /// two form one indivisible RMW (fetch-and-increment, CAS): the read
  /// always observes the latest write in modification order, whatever
  /// ReadOrd says.  Non-atomic read+write is a *torn* access — under a
  /// weak model the read may be stale, which is how the broken ticket
  /// lock's duplicate tickets arise.
  bool Atomic = true;

  /// Memory-fair read: the reads-from enumeration always resolves to the
  /// latest write, while the synchronization effect still follows
  /// ReadOrd.  This is the spin-assume / await-termination assumption of
  /// weak-memory model checking (GenMC et al.): a spin-loop iteration
  /// that reads a stale value just re-loops, so RC11's "a load may read
  /// stale forever" would make every spin lock diverge under exploration;
  /// annotating the spin read fair models the liveness side of the
  /// hardware (a store eventually propagates) without strengthening the
  /// ordering side.
  bool FairRead = false;

  /// A default-constructed footprint is *local*: it touches no shared
  /// location and commutes with everything (a hardware instruction, a
  /// private primitive).
  bool local() const { return !Opaque && Reads.empty() && Writes.empty(); }

  static Footprint opaque() {
    Footprint F;
    F.Opaque = true;
    return F;
  }

  /// Builds a footprint from arbitrary (unsorted, possibly duplicated)
  /// location lists.
  static Footprint of(std::vector<std::string> Reads,
                      std::vector<std::string> Writes);

  /// True when any annotation differs from the SC defaults — the footprint
  /// opts in to weak-memory treatment (reads-from enumeration under
  /// MemoryModel::Ra, order-folding CertKeys).
  bool weakOrdered() const {
    return ReadOrd != MemOrder::SeqCst || WriteOrd != MemOrder::SeqCst ||
           !Atomic || FairRead;
  }

  /// Copy with the given read/write orders (builder style, so layer
  /// definitions read as `Footprint::of(...).withOrders(...)`).
  Footprint withOrders(MemOrder R, MemOrder W) const {
    Footprint F = *this;
    F.ReadOrd = R;
    F.WriteOrd = W;
    return F;
  }

  /// Copy with the read/write pair demoted to a torn (non-RMW) access.
  Footprint nonAtomic() const {
    Footprint F = *this;
    F.Atomic = false;
    return F;
  }

  /// Copy with the read marked memory-fair (spin-loop await).
  Footprint fairRead() const {
    Footprint F = *this;
    F.FairRead = true;
    return F;
  }

  /// A read with this order synchronizes (joins the writer's view) when it
  /// reads from a release-or-stronger write.
  bool readActsAcquire() const {
    return ReadOrd == MemOrder::Acquire || ReadOrd == MemOrder::AcqRel ||
           ReadOrd == MemOrder::SeqCst;
  }

  /// A write with this order publishes the writer's view for acquirers.
  bool writeActsRelease() const {
    return WriteOrd == MemOrder::Release || WriteOrd == MemOrder::AcqRel ||
           WriteOrd == MemOrder::SeqCst;
  }
};

/// Canonical linearization of the Mazurkiewicz trace of \p L: two events
/// depend on each other iff they share a participant or their kinds'
/// footprints (per \p FootOfKind) conflict; the canonical form is the
/// dependence-respecting order that always picks the ready event with the
/// smallest (Tid, per-Tid index).  The Explorer's partial-order reduction
/// that recorded such logs is gone; this remains because
/// certbench/Layers.cpp, its only reader, still calls it.
Log canonicalizeLog(const Log &L,
                    const std::function<Footprint(KindId Kind)> &FootOfKind);

} // namespace ccal

#endif // CCAL_CORE_FOOTPRINT_H
