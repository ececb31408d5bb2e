//===- runtime/GhostLog.cpp - Logical-primitive instrumentation ---------------===//

#include "runtime/GhostLog.h"

namespace ccal {
namespace rt {

// Out of line on purpose: the measured cost is a real call + vector append,
// the same shape as the "extra null calls" of §6.
__attribute__((noinline)) void GhostLog::record(std::uint32_t Kind,
                                                std::uint64_t Arg) {
  Entries.push_back(Entry{Kind, Arg});
  if (Entries.size() >= (1u << 16))
    Entries.clear(); // bound memory during long benches
}

GhostLog &threadGhostLog() {
  thread_local GhostLog Log;
  return Log;
}

} // namespace rt
} // namespace ccal
