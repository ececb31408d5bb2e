//===- support/Clock.h - Shared monotonic clock ----------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The single monotonic timestamp source every runtime-side consumer
/// shares: the obs layer's `nowNs` (timers, Chrome trace spans) and the
/// audit recorder's invocation/response stamps (which also yield the lock
/// benches' acquire latency and contention) all read this clock, anchored
/// to one process-wide origin.  Keeping them on one source is a
/// correctness matter, not a convenience: the audit checker derives
/// real-time *precedence* from these stamps (response(A) < invoke(B)
/// means A must linearize before B), so two subsystems reading clocks
/// with different origins — or a monotonic clock here and a wall clock
/// there — could manufacture or hide precedence edges and make a trace
/// disagree with the spans recorded alongside it.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_SUPPORT_CLOCK_H
#define CCAL_SUPPORT_CLOCK_H

#include <cstdint>

namespace ccal {
namespace support {

/// Monotonic nanoseconds since the process-wide origin (the first call in
/// the process).  Never decreases, within a thread or across threads that
/// synchronize; the small origin keeps Chrome-trace timestamps and trace
/// dumps compact.
std::uint64_t monotonicNowNs();

} // namespace support
} // namespace ccal

#endif // CCAL_SUPPORT_CLOCK_H
