//===- tests/common/concurrent_calls.h - One checker on two threads -*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A checker may run on several threads at once, as certd's workers run
/// jobs, so it must keep no mutable state that outlives a call.  The
/// concurrency tests call one checker from two threads at once and
/// compare every report with a sequential run's: shared state shows up
/// as a crash, a different report, or a ThreadSanitizer report.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_TESTS_COMMON_CONCURRENT_CALLS_H
#define CCAL_TESTS_COMMON_CONCURRENT_CALLS_H

#include <thread>
#include <type_traits>
#include <vector>

namespace ccal {
namespace test {

/// Calls \p Check \p Rounds times on each of two threads at once and
/// returns all 2 x \p Rounds results.
template <typename Fn>
std::vector<std::invoke_result_t<Fn &>> callOnTwoThreads(Fn Check,
                                                         unsigned Rounds) {
  std::vector<std::invoke_result_t<Fn &>> Mine, Theirs;
  std::jthread Other([&] {
    for (unsigned I = 0; I != Rounds; ++I)
      Theirs.push_back(Check());
  });
  for (unsigned I = 0; I != Rounds; ++I)
    Mine.push_back(Check());
  Other.join();
  Mine.insert(Mine.end(), Theirs.begin(), Theirs.end());
  return Mine;
}

} // namespace test
} // namespace ccal

#endif // CCAL_TESTS_COMMON_CONCURRENT_CALLS_H
