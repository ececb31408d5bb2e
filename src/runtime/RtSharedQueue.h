//===- runtime/RtSharedQueue.h - Runtime shared queue ----------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime shared queue (§4.2's pattern, §6's point): "to implement
/// the atomic queue object, we simply wrap the local queue operations with
/// lock acquire and release".  Templated over the lock so the ticket and
/// MCS locks can be interchanged without touching the queue — the runtime
/// mirror of the interchangeability the model certifies.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_RUNTIME_RTSHAREDQUEUE_H
#define CCAL_RUNTIME_RTSHAREDQUEUE_H

#include "audit/Recorder.h"
#include "runtime/RtMcsLock.h"
#include "runtime/RtTicketLock.h"

#include <cstdint>
#include <deque>
#include <optional>

namespace ccal {
namespace rt {

/// Lock adapter concept: defaulted for locks with argumentless
/// acquire/release (ticket, queuing); specialized for MCS which threads a
/// node through.
template <typename LockT> struct LockScope {
  explicit LockScope(LockT &L) : L(L) { L.acquire(); }
  ~LockScope() { L.release(); }
  LockT &L;
};

template <bool Ghost, bool Audit> struct LockScope<McsLock<Ghost, Audit>> {
  explicit LockScope(McsLock<Ghost, Audit> &L) : L(L) { L.acquire(Node); }
  ~LockScope() { L.release(Node); }
  McsLock<Ghost, Audit> &L;
  McsNode Node;
};

/// Lock-wrapped queue of 64-bit values.
///
/// The queue audits at its own abstraction level: enqueue/dequeue feed the
/// trace auditor as enQ/deQ records (the model-side SharedQueue spec event
/// names), replayable against the FIFO "queue" spec.  Instantiate with an
/// Audit=false lock (e.g. TicketLock<false, false>) so the internal lock's
/// acq/rel — implementation detail at this level — stays out of the trace.
template <typename LockT> class SharedQueue {
public:
  void enqueue(std::int64_t V) {
    const std::uint64_t AInv = audit::invokeNow();
    {
      LockScope<LockT> Guard(Lock);
      Items.push_back(V);
    }
    if (AInv)
      audit::record(this, audit::Method::Enq, /*HasArg=*/true, V, 0, AInv);
  }

  std::optional<std::int64_t> dequeue() {
    const std::uint64_t AInv = audit::invokeNow();
    std::optional<std::int64_t> Out;
    {
      LockScope<LockT> Guard(Lock);
      if (!Items.empty()) {
        Out = Items.front();
        Items.pop_front();
      }
    }
    if (AInv)
      audit::record(this, audit::Method::Deq, /*HasArg=*/false, 0,
                    Out ? *Out : -1, AInv);
    return Out;
  }

private:
  LockT Lock;
  std::deque<std::int64_t> Items;
};

} // namespace rt
} // namespace ccal

#endif // CCAL_RUNTIME_RTSHAREDQUEUE_H
