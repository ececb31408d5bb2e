//===- machine/MemoryModel.h - The memory model of a machine ---*- C++ -*-===//
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
/// `memory_order` annotations that SC exploration never exercises.  So
/// "which log does a primitive observe" is a two-valued machine parameter:
///
///   * MemoryModel::Sc — the paper's semantics.  One reads-from choice per
///     step, the full log visible, no extra state.
///
///   * MemoryModel::Ra — an RC11-style release/acquire operational model
///     in the view-front style of Kaiser et al. and Dalvandi & Dongol
///     (PAPERS.md), whose state and transitions are RaState's.  Per
///     location, the modification order mo(l) is the subsequence of log
///     events writing l, in log order.  Each participant carries a view:
///     for every location, how many writes of mo(l) it is guaranteed to
///     observe.  A relaxed or acquire load may read from any write
///     at-or-after its view front — the Explorer enumerates these
///     reads-from choices as step *variants* — and the machine realizes a
///     stale choice by replaying the primitive against a visible log that
///     hides the writes beyond the chosen front.
///
/// View-front rules (applied by RaState::commit after each step):
///   * a read of l at position p advances the reader's front on l to p
///     (coherence: later reads of l never travel backwards — CoRR);
///   * an acquire-acting read (Acquire/AcqRel/SeqCst) that reads from a
///     release-acting write joins the write's *message view* — the
///     writer's full view captured when the write was committed — which is
///     what forbids the stale-data MP outcome once the writer releases;
///   * a write to l appends a message to mo(l) and advances the writer's
///     front to the new tail;
///   * SeqCst accesses join bidirectionally with a global SC view (entry
///     view |= Sc before reads; Sc |= exit view after writes), restoring
///     interleaving semantics for fully-SeqCst programs;
///   * SeqCst reads and atomic RMWs always read the latest write at the
///     current log point — a documented strengthening over RC11's SC
///     access axioms that keeps unannotated primitives exactly as strong
///     under Ra as under Sc;
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
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ccal {

class LayerInterface;

/// How a machine resolves shared-memory visibility (see the file
/// comment).  Certificate keys fold the model only when it is Ra, so SC
/// keys are those of a machine without the parameter.
enum class MemoryModel : std::uint8_t { Sc, Ra };

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

/// The release/acquire half of a machine snapshot and the model's
/// transitions over it.  A machine keeps one only under MemoryModel::Ra.
struct RaState {
  std::map<std::string, std::vector<RaMsg>> Mo;
  std::map<ThreadId, RaView> Views;
  RaView Sc;

  /// Number of distinct reads-from choices participant \p Tid has for a
  /// step with footprint \p F.  Variant 0 is always the all-latest
  /// (SC-coincident) choice.  The count saturates at \p Budget + 1; a
  /// caller seeing a value above Budget must fail closed (the machine
  /// faults with a raise-the-budget message).
  unsigned stepVariants(ThreadId Tid, const Footprint &F,
                        unsigned Budget) const;

  /// The log the primitive's semantics may observe under \p Variant:
  /// std::nullopt when the full log is visible (no copy), otherwise a
  /// filtered copy hiding the writes beyond each chosen front.
  std::optional<Log> visibleLog(const Log &Full, ThreadId Tid,
                                const Footprint &F, unsigned Variant) const;

  /// Folds an executed step into the state: front advances, acquire
  /// joins, SC-view joins, and one new message per write of each event
  /// appended at indices [\p FirstNew, Full.size()).  Each appended
  /// event's write set and release strength are its primitive's declared
  /// footprint in \p Layer; an event of no primitive writes nothing.
  void commit(const Log &Full, std::size_t FirstNew, ThreadId Tid,
              const Footprint &F, unsigned Variant,
              const LayerInterface &Layer);
};

} // namespace ccal

#endif // CCAL_MACHINE_MEMORYMODEL_H
