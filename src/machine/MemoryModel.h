//===- machine/MemoryModel.h - Pluggable memory models ---------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The memory model as an explicit machine parameter (DESIGN.md §13).
///
/// The paper's machines are sequentially consistent by construction: every
/// shared primitive observes the full global log.  The shipped runtime
/// locks, however, run on real `std::atomic` with hand-picked
/// `memory_order` annotations that SC exploration never exercises.  This
/// file lifts "which log does a primitive observe" behind a MemoryModel
/// interface with two implementations:
///
///   * ScMemory — today's semantics.  One reads-from choice per step, the
///     full log visible, no extra state.  A machine with a null or SC
///     model is bit-identical to the pre-model machine (snapshots,
///     certificates, exploration outcomes).
///
///   * RaMemory — an RC11-style release/acquire operational model with SC
///     fences, in the view-front style of Kaiser et al. and Dalvandi &
///     Dongol (PAPERS.md).  Per location, the modification order mo(l) is
///     the subsequence of log events writing l, in log order.  Each
///     participant carries a view: for every location, how many writes of
///     mo(l) it is guaranteed to observe.  A relaxed or acquire load may
///     read from any write at-or-after its view front — the Explorer
///     enumerates these reads-from choices as step *variants* — and the
///     machine realizes a stale choice by replaying the primitive against
///     a visible log that hides the writes beyond the chosen front.
///
/// View-front rules (applied by RaMemory::commit after each step):
///   * a read of l at position p advances the reader's front on l to p
///     (coherence: later reads of l never travel backwards — CoRR);
///   * an acquire-acting read (Acquire/AcqRel/SeqCst) that reads from a
///     release-acting write joins the write's *message view* — the
///     writer's full view captured when the write was committed — which is
///     what forbids the stale-data MP outcome once the writer releases;
///   * a write to l appends a message to mo(l) and advances the writer's
///     front to the new tail;
///   * SeqCst accesses and ScFence primitives join bidirectionally with a
///     global SC view (entry view |= Sc before reads; Sc |= exit view
///     after writes), restoring interleaving semantics for fully-SeqCst
///     programs and giving SC fences their RC11 strength;
///   * SeqCst reads and atomic RMWs always read the latest write at the
///     current log point — a documented strengthening over RC11's SC
///     access axioms that keeps unannotated primitives exactly as strong
///     under RaMemory as under ScMemory;
///   * reads cannot observe writes not yet in the log, so load-buffering
///     (LB) cycles are forbidden, matching RC11's po ∪ rf acyclicity.
///
/// Within one primitive all reads choose against the view the step was
/// entered with; acquire joins apply after the reads.  Our annotated
/// primitives read at most one weak location each, so the simultaneity is
/// unobservable; it is the documented semantics for anything larger.
///
/// Message views are genuine machine state: a writer's view at write time
/// depends on the reads-from choices of earlier steps and is not a
/// function of the log, so RaState lives in the machine snapshot.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_MEMORYMODEL_H
#define CCAL_MACHINE_MEMORYMODEL_H

#include "core/Footprint.h"
#include "core/Log.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ccal {

/// A participant's view: for each location, the number of writes in mo(l)
/// it is guaranteed to observe (its front into the modification order).
/// Locations absent from the map are at front 0.  Fronts only ever grow.
struct RaView {
  std::map<std::string, std::uint32_t> Front;

  std::uint32_t of(const std::string &Loc) const {
    auto It = Front.find(Loc);
    return It == Front.end() ? 0 : It->second;
  }

  void advance(const std::string &Loc, std::uint32_t To) {
    std::uint32_t &F = Front[Loc];
    if (To > F)
      F = To;
  }

  /// Pointwise max (the view-lattice join).
  void join(const RaView &O) {
    for (const auto &[Loc, F] : O.Front)
      advance(Loc, F);
  }
};

/// One write message in a location's modification order.
struct RaMsg {
  bool Release = false;   ///< write acted as a release (joinable view)
  std::uint32_t LogIdx = 0; ///< index of the writing event in the full log
  RaView View;            ///< writer's view when the write committed
};

/// The weak-memory half of a machine snapshot.  Empty when the model is
/// SC.
struct RaState {
  std::map<std::string, std::vector<RaMsg>> Mo;
  std::map<ThreadId, RaView> Views;
  RaView Sc;
};

/// How a machine resolves shared-memory visibility.  Stateless and
/// immutable; the mutable model state (RaState) lives in the machine
/// snapshot so exploration can fork it.
class MemoryModel {
public:
  virtual ~MemoryModel() = default;

  /// Stable name, folded into certificate keys ("sc", "ra").
  virtual const char *name() const = 0;

  /// True when the model admits non-SC behaviors (enables RaState
  /// snapshotting and reads-from enumeration).
  virtual bool weak() const = 0;

  /// Number of distinct reads-from choices participant \p Tid has for a
  /// step with footprint \p F in state \p S.  Variant 0 is always the
  /// all-latest (SC-coincident) choice.  The count saturates at
  /// \p Budget + 1; a caller seeing a value above Budget must fail closed
  /// (the machine faults with a raise-the-budget message).
  virtual unsigned stepVariants(const RaState &S, ThreadId Tid,
                                const Footprint &F,
                                unsigned Budget) const = 0;

  /// The log the primitive's semantics may observe under \p Variant:
  /// std::nullopt when the full log is visible (no copy), otherwise a
  /// filtered copy hiding the writes beyond each chosen front.
  virtual std::optional<Log> visibleLog(const RaState &S, const Log &Full,
                                        ThreadId Tid, const Footprint &F,
                                        unsigned Variant) const = 0;

  /// Folds an executed step into the model state: front advances, acquire
  /// joins, SC-view joins, and one new message per write event appended at
  /// indices [\p FirstNew, Full.size()).  \p FootOfKind resolves the
  /// footprint of each appended event (for its write set and release
  /// strength).
  virtual void commit(RaState &S, const Log &Full, std::size_t FirstNew,
                      ThreadId Tid, const Footprint &F, unsigned Variant,
                      const std::function<Footprint(KindId)> &FootOfKind)
      const = 0;
};

using MemoryModelPtr = std::shared_ptr<const MemoryModel>;

/// Today's sequentially consistent semantics (also what a null model in a
/// MachineConfig means).  One variant, full log, no model state.
MemoryModelPtr scMemory();

/// The release/acquire model described in the file comment.
MemoryModelPtr raMemory();

} // namespace ccal

#endif // CCAL_MACHINE_MEMORYMODEL_H
