//===- core/LayerInterface.h - Layer interfaces ----------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concurrent layer interfaces `L[A] = (L, R, G)` (§3.2, Fig. 7): a
/// collection of primitives, a rely condition (the valid environment
/// contexts), and a guarantee condition (the invariant local events
/// maintain).
///
/// A primitive's semantics is a (partial) function of the calling thread,
/// the arguments, the shared state, and the caller's CPU-local memory —
/// the paper's `Prim in State -> List Val -> State -> Val -> Prop`,
/// deterministic here.  The shared state is the replay of the global log
/// (§2); the interface declares that replay as its SharedFold
/// (core/Replay.h), and the machine keeps the fold's value as it appends
/// events.  A primitive sees the shared state only through PrimCall::Fold:
/// it is handed no log, so what it may observe is exactly what the
/// interface declares.  Shared primitives append events and may read/write
/// the local copy of shared memory (the push/pull model delivers shared
/// effects this way, Fig. 8); private primitives touch only local memory.
/// A primitive returning std::nullopt is *stuck*: the executable analogue
/// of undefined behaviour such as a data race, which verification must
/// show unreachable.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CORE_LAYERINTERFACE_H
#define CCAL_CORE_LAYERINTERFACE_H

#include "core/Footprint.h"
#include "core/Log.h"
#include "core/RelyGuarantee.h"
#include "core/Replay.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace ccal {

/// Everything a primitive may observe when invoked.
struct PrimCall {
  /// The calling CPU/thread.
  ThreadId Tid = 0;

  /// Evaluated arguments.
  std::vector<std::int64_t> Args;

  /// The interface's fold over the global log *before* this call: all
  /// the primitive sees of the shared state.  A machine passes the value
  /// it keeps; under a weak memory model a stale read gets the fold of
  /// its visible log instead.
  const FoldValue *Fold = nullptr;

  /// The caller's CPU-local memory (LAsm globals), or nullptr when invoked
  /// outside a machine (a test calling a primitive directly).
  const std::vector<std::int64_t> *LocalMem = nullptr;
};

/// Everything a primitive may effect.
struct PrimResult {
  /// Events appended to the global log (empty for private primitives).
  std::vector<Event> Events;

  /// The return value.
  std::int64_t Ret = 0;

  /// Writes delivered into the caller's CPU-local memory, as (address,
  /// value) pairs — how pull materializes the shared copy (Fig. 8).
  std::vector<std::pair<std::int32_t, std::int64_t>> LocalWrites;

  /// True when the primitive cannot proceed *yet* (an atomic blocking
  /// specification, e.g. `acq` while the lock is held).  The machine keeps
  /// the caller parked; the call will be retried when the log has grown.
  /// Unlike std::nullopt (stuck = a safety violation), Blocked is a normal
  /// spec-level state.  Only a primitive marked Primitive::MayBlock may
  /// return it.
  bool Blocked = false;

  static PrimResult blocked() {
    PrimResult R;
    R.Blocked = true;
    return R;
  }
};

/// Deterministic partial semantics of one primitive.
using PrimSemantics =
    std::function<std::optional<PrimResult>(const PrimCall &)>;

/// A named primitive of a layer interface.
struct Primitive {
  std::string Name;

  /// Shared primitives are query/interleaving points (the `|>` marks in
  /// Fig. 10/11); private primitives are silent.
  bool Shared = true;

  /// True when the semantics may return PrimResult::Blocked.  Machines
  /// dry-run only such primitives to decide whether a parked caller is
  /// schedulable; an unmarked primitive that blocks faults its machine.
  bool MayBlock = false;

  /// True for scheduling primitives after which the calling thread never
  /// resumes (the multithreaded machine marks it exited): `texit` and the
  /// atomic `thread_exit`.
  bool ExitsThread = false;

  /// Declared read/write footprint over abstract shared locations (see
  /// core/Footprint.h), read by the release/acquire model (RaState) and
  /// folded into certificate keys.  Defaults to opaque.
  Footprint Foot = Footprint::opaque();

  PrimSemantics Sem;
};

/// A layer interface: primitive collection + rely/guarantee.  Interfaces
/// are immutable once built and shared between certified layers.
class LayerInterface {
public:
  explicit LayerInterface(std::string Name) : Name(std::move(Name)) {}
  LayerInterface(const LayerInterface &) = delete;
  LayerInterface &operator=(const LayerInterface &) = delete;

  const std::string &name() const { return Name; }

  /// Registers a primitive; the name must be fresh.
  void addPrim(Primitive P);

  /// Convenience: registers a shared primitive (opaque footprint).
  void addShared(std::string Name, PrimSemantics Sem);

  /// Convenience: registers a shared primitive with a declared footprint.
  void addShared(std::string Name, PrimSemantics Sem, Footprint Foot);

  /// Convenience: registers a private (silent) primitive.
  void addPrivate(std::string Name, PrimSemantics Sem);

  /// Looks a primitive up; nullptr when absent.
  const Primitive *lookup(const std::string &Name) const;

  /// O(1) lookup by interned kind id — the machine hot path (every
  /// schedulable() dry run and step() resolves the parked primitive).
  const Primitive *lookup(KindId Kind) const {
    auto It = ByKind.find(Kind.id());
    return It == ByKind.end() ? nullptr : It->second;
  }

  /// Declared footprint of the primitive of kind \p Kind (event kinds
  /// coincide with primitive names); opaque when the primitive is unknown
  /// or undeclared, so callers can treat any event kind uniformly.
  Footprint footprintOf(KindId Kind) const {
    const Primitive *P = lookup(Kind);
    return P ? P->Foot : Footprint::opaque();
  }

  /// True when the interface provides \p Name.
  bool provides(const std::string &Name) const {
    return lookup(Name) != nullptr;
  }

  /// All primitive names, sorted.
  std::vector<std::string> primNames() const;

  RelyGuarantee &rg() { return RG; }
  const RelyGuarantee &rg() const { return RG; }

  /// Declares \p Part as part of the interface's shared-state fold — the
  /// replay its primitives (and the invariants checked over its machines)
  /// read through FoldValue.
  template <typename State> void declareFold(const FoldPart<State> &Part) {
    Fold.declare(Part);
  }

  /// Declares every part of \p F, for interfaces rebuilt from another
  /// interface's primitives.
  void declareFold(const SharedFold &F) { Fold = SharedFold::product(Fold, F); }

  const SharedFold &fold() const { return Fold; }

  /// The `(+)` of Fig. 9 (Hcomp): union of primitive collections, over
  /// the product of the two folds.  Name clashes must agree by
  /// construction and are rejected.
  static std::shared_ptr<LayerInterface>
  merge(std::string Name, const LayerInterface &A, const LayerInterface &B);

private:
  std::string Name;
  std::map<std::string, Primitive> Prims;
  /// Interned-kind index into Prims (node-based map: pointers are stable).
  /// Interfaces are built once and shared by pointer; copying one would
  /// leave these aliasing the source, so copies are disabled.
  std::unordered_map<std::uint32_t, const Primitive *> ByKind;
  RelyGuarantee RG;
  SharedFold Fold;
};

using LayerPtr = std::shared_ptr<const LayerInterface>;

} // namespace ccal

#endif // CCAL_CORE_LAYERINTERFACE_H
