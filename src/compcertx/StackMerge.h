//===- compcertx/StackMerge.h - Thread-safe stack merging ------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The thread-safe compilation story of §5.5, executable.  On the
/// thread-local layer each thread allocates stack frames into its private
/// memory; on the CPU-local layer all frames live in one thread-shared
/// memory.  The extended semantics of yield/sleep allocates *empty
/// placeholder blocks* in the yielding thread's private memory for the
/// frames other threads created meanwhile, so that the ternary relation
/// `m1 (*) m2 (*) ... ~ m` of the algebraic memory model (Fig. 12) holds at
/// every switch point.
///
/// MergedStackSim maintains both views and checks the invariant; the
/// compcertx tests drive it with real compiled code (frame push/pop per
/// Call/Ret) and randomized schedules.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_COMPCERTX_STACKMERGE_H
#define CCAL_COMPCERTX_STACKMERGE_H

#include "mem/AlgebraicMemory.h"

#include <cstdint>
#include <string>
#include <vector>

namespace ccal {

/// Simulates N threads on one CPU sharing a merged frame memory.
class MergedStackSim {
public:
  explicit MergedStackSim(unsigned NumThreads);

  /// The currently running thread.
  unsigned current() const { return Cur; }

  /// The extended scheduling primitive: switches to \p To, first lifting
  /// \p To's private memory with placeholders for every block allocated
  /// since \p To last ran (the paper's `liftnb`).
  void yieldTo(unsigned To);

  /// The running thread calls a function: a frame block with \p Words
  /// words is allocated in its private memory and in the merged memory.
  /// Returns the block index (equal in both by construction).
  std::uint32_t pushFrame(std::int64_t Words);

  /// The running thread returns: permissions on its newest frame are
  /// freed in both memories.
  void popFrame();

  /// Stores into the running thread's newest frame.
  bool storeTop(std::int64_t Off, std::int64_t V);

  /// Loads from the running thread's newest frame.
  std::optional<std::int64_t> loadTop(std::int64_t Off) const;

  /// Checks `m1 (*) m2 (*) ... (*) mN ~ m` via the N-ary fold described at
  /// the end of §5.5.
  bool invariantHolds() const;

  const AlgMem &merged() const { return Merged; }
  const AlgMem &privateMem(unsigned T) const { return Private[T]; }

  /// Frame stack (block ids) of thread \p T.
  const std::vector<std::uint32_t> &frames(unsigned T) const {
    return FrameStacks[T];
  }

private:
  AlgMem Merged;
  std::vector<AlgMem> Private;
  std::vector<std::vector<std::uint32_t>> FrameStacks;
  unsigned Cur = 0;
};

} // namespace ccal

#endif // CCAL_COMPCERTX_STACKMERGE_H
