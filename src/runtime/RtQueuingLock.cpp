//===- runtime/RtQueuingLock.cpp - Runtime queuing lock ------------------------===//

#include "runtime/RtQueuingLock.h"

#include "audit/Recorder.h"

using namespace ccal;
using namespace ccal::rt;

void QueuingLock::acquire() {
  const std::uint64_t AInv = audit::invokeNow();
  Spin.acquire();
  if (!Busy) {
    Busy = true; // fast path: ql_busy = get_tid()
    Spin.release();
    if (AInv)
      audit::record(this, audit::Method::Acq, /*HasArg=*/false, 0, 0, AInv);
    return;
  }
  // Slow path: sleep on the lock's queue (the spinlock is released before
  // parking, and the lock is handed to us by the releaser).
  Waiter W;
  Sleepers.push_back(&W);
  Spin.release();
  std::unique_lock<std::mutex> Guard(W.M);
  W.Cv.wait(Guard, [&W] { return W.Granted; });
  if (AInv)
    audit::record(this, audit::Method::Acq, /*HasArg=*/false, 0, 0, AInv);
}

void QueuingLock::release() {
  const std::uint64_t AInv = audit::invokeNow();
  Spin.acquire();
  if (Sleepers.empty()) {
    Busy = false; // ql_busy = -1
    Spin.release();
    if (AInv)
      audit::record(this, audit::Method::Rel, /*HasArg=*/false, 0, 0, AInv);
    return;
  }
  Waiter *Next = Sleepers.front();
  Sleepers.pop_front(); // ql_busy = wakeup(): direct handoff
  Spin.release();
  {
    // Notify while holding the waiter's mutex: once the mutex is free the
    // waiter may see Granted, return, and destroy its Waiter, condition
    // variable included.
    std::lock_guard<std::mutex> Guard(Next->M);
    Next->Granted = true;
    Next->Cv.notify_one();
  }
  if (AInv)
    audit::record(this, audit::Method::Rel, /*HasArg=*/false, 0, 0, AInv);
}
