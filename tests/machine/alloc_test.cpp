//===- tests/machine/alloc_test.cpp - Allocations per explored state -------===//
//
// The schedule-tree search reuses its storage: DFS frames keep their slots,
// machines are copy-assigned into them, and the outcome batch keeps its
// outcomes.  These tests count heap allocations while the Explorer runs a
// catalog job's implementation machine and bound them per explored state.
// The count comes from replacing the global operator new, so this file is
// a test executable of its own.
//
//===----------------------------------------------------------------------===//

#include "objects/McsLock.h"
#include "objects/TicketLock.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

using namespace ccal;

namespace {
std::atomic<std::uint64_t> Allocations{0};

void *countedAlloc(std::size_t N) noexcept {
  Allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(N ? N : 1);
}

// Out of line, so the compiler does not inline free() into a caller whose
// pointer came from operator new and warn about the pairing.
[[gnu::noinline]] void release(void *P) noexcept { std::free(P); }
} // namespace

// Every unaligned form is replaced, deletes included, so each allocation
// and its release pair up in malloc and free (a sanitizer that tracks the
// allocating function sees matching calls).  The aligned forms keep the
// library's definitions: the search allocates nothing over-aligned per
// state.
void *operator new(std::size_t N) {
  if (void *P = countedAlloc(N))
    return P;
  throw std::bad_alloc();
}
void *operator new[](std::size_t N) { return ::operator new(N); }
void *operator new(std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void *operator new[](std::size_t N, const std::nothrow_t &) noexcept {
  return countedAlloc(N);
}
void operator delete(void *P) noexcept { release(P); }
void operator delete[](void *P) noexcept { release(P); }
void operator delete(void *P, std::size_t) noexcept { release(P); }
void operator delete[](void *P, std::size_t) noexcept { release(P); }
void operator delete(void *P, const std::nothrow_t &) noexcept { release(P); }
void operator delete[](void *P, const std::nothrow_t &) noexcept {
  release(P);
}

namespace {

/// Heap allocations per explored state while one worker explores \p H's
/// implementation machine with a no-op OnOutcome, measured on a second
/// run after a warm-up run of the same exploration.  exploreGeneric is
/// called directly, so no certificate store can serve the result.
double allocationsPerState(const ObjectHarness &H) {
  MachineConfigPtr Cfg = H.implConfig();
  ExploreOptions Opts = H.ImplOpts;
  Opts.Threads = 1;
  Opts.OnOutcome = [](const Outcome &) { return std::string(); };
  MultiCoreMachine Root(Cfg);

  ExploreResult Warm = exploreGeneric(Root, Opts);
  const std::uint64_t Before = Allocations.load(std::memory_order_relaxed);
  ExploreResult Res = exploreGeneric(Root, Opts);
  const std::uint64_t After = Allocations.load(std::memory_order_relaxed);

  EXPECT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_TRUE(Res.Complete) << Res.Truncation;
  EXPECT_EQ(Res.StatesExplored, Warm.StatesExplored);
  EXPECT_GT(Res.StatesExplored, 0u);
  const double PerState = static_cast<double>(After - Before) /
                          static_cast<double>(Res.StatesExplored);
  std::printf("%s: %llu allocations over %llu states (%.2f per state)\n",
              H.ObjectName.c_str(),
              static_cast<unsigned long long>(After - Before),
              static_cast<unsigned long long>(Res.StatesExplored), PerState);
  return PerState;
}

} // namespace

// A call of the global operator new is counted (a new-expression could be
// elided, a direct call cannot).
TEST(ExploreAllocTest, CountingIsLive) {
  const std::uint64_t Before = Allocations.load();
  void *P = ::operator new(64);
  EXPECT_EQ(Allocations.load() - Before, 1u);
  ::operator delete(P);
}

// The certd job ticket.2cpu.  Each state still allocates the primitive's
// event vector (PrimResult::Events), whose events are moved into the log;
// frames, snapshots, VM calls and outcomes reuse their storage.  It makes
// 1.35 allocations per state; the bound is 10% above.
TEST(ExploreAllocTest, TicketTwoCpuAllocatesLittlePerState) {
  EXPECT_LE(allocationsPerState(makeTicketLockHarness(2, 1)), 1.48);
}

// The certd job mcs.2cpu: 1.81 allocations per state.
TEST(ExploreAllocTest, McsTwoCpuAllocatesLittlePerState) {
  EXPECT_LE(allocationsPerState(makeMcsLockHarness(2, 1)), 1.99);
}
