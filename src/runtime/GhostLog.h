//===- runtime/GhostLog.h - Logical-primitive instrumentation --*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The runtime counterpart of the model's "logical primitives".  §6
/// recounts that the verified ticket lock initially took 87 cycles because
/// calls to logical primitives (ghost-state manipulation) had not been
/// removed, and 35 cycles after removing them.  The runtime locks can be
/// built with ghost calls compiled in (GhostEnabled = true, recording each
/// abstract event into a per-thread buffer) or compiled out — letting the
/// lock-latency bench regenerate exactly that before/after comparison.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_RUNTIME_GHOSTLOG_H
#define CCAL_RUNTIME_GHOSTLOG_H

#include <cstddef>
#include <cstdint>
#include <vector>

namespace ccal {
namespace rt {

/// A per-thread buffer of abstract events (kind id + argument), the
/// runtime stand-in for appending to the global log.
class GhostLog {
public:
  struct Entry {
    std::uint32_t Kind;
    std::uint64_t Arg;
  };

  /// Records one logical-primitive call.  Deliberately not inlined, like
  /// the function calls the paper forgot to remove.
  void record(std::uint32_t Kind, std::uint64_t Arg);

  size_t size() const { return Entries.size(); }
  void clear() { Entries.clear(); }

private:
  std::vector<Entry> Entries;
};

/// The calling thread's ghost log.
GhostLog &threadGhostLog();

/// Ghost event kinds used by the runtime locks.
enum GhostKind : std::uint32_t {
  GhostFai = 1,
  GhostGetNow,
  GhostIncNow,
  GhostHold,
  GhostSwapTail,
  GhostCasTail,
  GhostClearBusy,
};

} // namespace rt
} // namespace ccal

#endif // CCAL_RUNTIME_GHOSTLOG_H
