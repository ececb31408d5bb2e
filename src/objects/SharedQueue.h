//===- objects/SharedQueue.h - Certified shared queue ----------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared queue object of §4.2: lock-protected queue operations over
/// the push/pull memory model.  deQ/enQ acquire the (already certified,
/// atomic) lock, pull the queue's shared cell into the CPU-local copy,
/// operate on it as plain sequential code, announce their commit with a
/// ghost marker event (`deq_done`/`enq_done` — logical primitives in the
/// paper's sense, cf. §6's performance note about removing them), push the
/// cell back, and release.
///
/// The underlay is the lock's *overlay* L1 — building this layer on the
/// atomic lock interface is the vertical composition the paper emphasizes
/// ("we simply wrap the local queue operations with lock acquire and
/// release", §6).  The overlay is an atomic enQ/deQ interface whose state
/// is the fold of the commit events.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_OBJECTS_SHAREDQUEUE_H
#define CCAL_OBJECTS_SHAREDQUEUE_H

#include "mem/PushPull.h"
#include "objects/Harness.h"
#include "objects/ObjectSpec.h"

namespace ccal {

/// Capacity of the shared queue cell.
inline constexpr int SharedQueueCap = 8;

/// Abstract queue replayed from atomic enQ/deQ (or commit-marker) events.
struct AbstractSharedQueue {
  std::vector<std::int64_t> Items;
  bool operator==(const AbstractSharedQueue &) const = default;
};

/// Replays the abstract queue from `enQ`/`deQ` events (spec level).
Replayer<AbstractSharedQueue> makeSharedQueueReplayer();

/// The pieces of the shared-queue certification, built around a concrete
/// linked program (the push/pull cell needs the linked global addresses).
struct SharedQueueSetup {
  ClightModule Module;           ///< deQ/enQ implementation
  ClightModule Client;           ///< producer/consumer client
  LayerPtr Underlay;             ///< atomic lock + pull/push + markers
  /// The underlay's lock part, read by the lock-protocol invariant.
  std::optional<FoldPart<AbstractLockState>> Lock;
  LayerPtr Overlay;              ///< atomic enQ/deQ
  EventMap R;                    ///< commit mapping
  MachineConfigPtr ImplConfig;   ///< client (+) module over Underlay
  MachineConfigPtr SpecConfig;   ///< client over Overlay
};

/// Builds the full setup.  \p Producers enqueue Rounds values each and
/// \p Consumers dequeue Rounds times each.
SharedQueueSetup makeSharedQueueSetup(unsigned Producers, unsigned Consumers,
                                      unsigned Rounds);

/// Certifies the shared queue layer `L1[..] |- shared_queue : Lq[..]`.
HarnessOutcome certifySharedQueue(unsigned Producers = 1,
                                  unsigned Consumers = 1,
                                  unsigned Rounds = 2);

} // namespace ccal

#endif // CCAL_OBJECTS_SHAREDQUEUE_H
