//===- bench/bench_memmodel.cpp - Memory model throughput -------------------------===//
//
// Measures the two memory models: push/pull replay (Fig. 8) as the log
// grows, and Fig. 12 algebraic composition at increasing block counts.
// These are the inner loops of every refinement check, so their costs set
// the verification wall-clock in Table 2's analogue.
//
//===----------------------------------------------------------------------===//

#include "mem/AlgebraicMemory.h"
#include "mem/PushPull.h"
#include "support/Rng.h"

#include <benchmark/benchmark.h>

using namespace ccal;

namespace {

void pushPullReplay(benchmark::State &State) {
  PushPullModel Model;
  PushPullModel::Location Cell;
  Cell.Loc = 0;
  Cell.LocalBase = 0;
  Cell.Size = 4;
  Model.addLocation(Cell);

  Log L;
  std::int64_t Len = State.range(0);
  for (std::int64_t I = 0; I != Len / 2; ++I) {
    ThreadId T = static_cast<ThreadId>(I % 3);
    logAppend(L, Event(T, PullEventKind, {0}));
    logAppend(L, Event(T, PushEventKind, {0, I, I + 1, I + 2, I + 3}));
  }
  for (auto _ : State) {
    std::optional<SharedMemState> S = Model.replayer().replay(L);
    benchmark::DoNotOptimize(S);
  }
  State.counters["events/s"] = benchmark::Counter(
      static_cast<double>(L.size()) *
          static_cast<double>(State.iterations()),
      benchmark::Counter::kIsRate);
}
BENCHMARK(pushPullReplay)
    ->Name("PushPull/replay")
    ->Arg(16)
    ->Arg(128)
    ->Arg(1024);

void algMemCompose(benchmark::State &State) {
  Rng R(42);
  unsigned Blocks = static_cast<unsigned>(State.range(0));
  AlgMem A, B;
  for (unsigned I = 0; I != Blocks; ++I) {
    if (R.chance(1, 2)) {
      A.alloc(0, 4);
      B.liftnb(1);
    } else {
      A.liftnb(1);
      B.alloc(0, 4);
    }
  }
  for (auto _ : State) {
    std::optional<AlgMem> M = AlgMem::compose(A, B);
    benchmark::DoNotOptimize(M);
  }
}
BENCHMARK(algMemCompose)
    ->Name("AlgMem/compose")
    ->Arg(8)
    ->Arg(64)
    ->Arg(512);

void algMemAxiomSweep(benchmark::State &State) {
  Rng R(7);
  AlgMem A, B;
  for (unsigned I = 0; I != 32; ++I) {
    if (R.chance(1, 2)) {
      A.alloc(0, 2);
      B.liftnb(1);
    } else {
      A.liftnb(1);
      B.alloc(0, 2);
    }
  }
  std::uint64_t Checks = 0;
  for (auto _ : State) {
    bool Ok = memaxioms::checkNb(A, B) && memaxioms::checkComm(A, B) &&
              memaxioms::checkSt(A, B, MemLoc{3, 0}, 9) &&
              memaxioms::checkAlloc(A, B, 0, 4) &&
              memaxioms::checkLiftR(A, B, 3) &&
              memaxioms::checkLiftL(A, B, 3);
    benchmark::DoNotOptimize(Ok);
    Checks += 6;
  }
  State.counters["axioms/s"] = benchmark::Counter(
      static_cast<double>(Checks), benchmark::Counter::kIsRate);
}
BENCHMARK(algMemAxiomSweep)->Name("AlgMem/fig12_axioms");

} // namespace

BENCHMARK_MAIN();
