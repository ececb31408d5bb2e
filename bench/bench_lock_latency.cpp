//===- bench/bench_lock_latency.cpp - §6's lock-latency experiment ---------------===//
//
// Regenerates the paper's performance observation (§6): "Initially, the
// ticket lock implementation incurred a latency of 87 CPU cycles in the
// single core case ... we forgot to remove some function calls to
// 'logical primitives' used for manipulating ghost abstract states.
// After we removed these extra null calls, the latency dropped down to
// only 35 CPU cycles."
//
// We measure single-thread acquire+release latency of the ticket and MCS
// locks with the ghost logical-primitive calls compiled in vs compiled
// out.  Absolute cycle counts differ from a 2011 i7; the *shape* —
// removing ghost calls cuts latency by roughly 2-3x — is the result.
//
//===----------------------------------------------------------------------===//

#include "audit/Recorder.h"
#include "runtime/RtMcsLock.h"
#include "runtime/RtTicketLock.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <thread>
#include <vector>

using namespace ccal;
using namespace ccal::rt;

namespace {

void ticketWithGhost(benchmark::State &State) {
  TicketLock<true> Lock;
  for (auto _ : State) {
    Lock.acquire();
    Lock.release();
  }
  threadGhostLog().clear();
}
BENCHMARK(ticketWithGhost)->Name("TicketLock/ghost_calls_in");

void ticketNoGhost(benchmark::State &State) {
  TicketLock<false> Lock;
  for (auto _ : State) {
    Lock.acquire();
    Lock.release();
  }
}
BENCHMARK(ticketNoGhost)->Name("TicketLock/ghost_calls_removed");

void mcsWithGhost(benchmark::State &State) {
  McsLock<true> Lock;
  for (auto _ : State) {
    McsNode Node;
    Lock.acquire(Node);
    Lock.release(Node);
  }
  threadGhostLog().clear();
}
BENCHMARK(mcsWithGhost)->Name("McsLock/ghost_calls_in");

void mcsNoGhost(benchmark::State &State) {
  McsLock<false> Lock;
  for (auto _ : State) {
    McsNode Node;
    Lock.acquire(Node);
    Lock.release(Node);
  }
}
BENCHMARK(mcsNoGhost)->Name("McsLock/ghost_calls_removed");

#if !defined(CCAL_NO_AUDIT)

/// One BENCH_locks.json row, computed from the audit records of one lock.
struct LockRow {
  std::string Name;
  unsigned Threads = 0;
  std::uint64_t Iters = 0;              ///< acquires per thread
  std::vector<std::uint64_t> LatencyNs; ///< one per acquire, sorted
  std::uint64_t Contended = 0;
  std::uint64_t Dropped = 0;
};

template <bool Ghost> void acquireRelease(TicketLock<Ghost> &Lock) {
  Lock.acquire();
  Lock.release();
}

template <bool Ghost> void acquireRelease(McsLock<Ghost> &Lock) {
  McsNode Node;
  Lock.acquire(Node);
  Lock.release(Node);
}

/// Nearest-rank q-quantile of \p Sorted.
std::uint64_t quantile(const std::vector<std::uint64_t> &Sorted, double Q) {
  if (Sorted.empty())
    return 0;
  auto Rank = static_cast<std::size_t>(std::ceil(Q * Sorted.size()));
  return Sorted[Rank ? Rank - 1 : 0];
}

/// Derives latency and contention from \p Lock's records in \p C.  An
/// acquire's latency is its response minus its invocation.  Mutual
/// exclusion keeps critical sections apart, so the lock was held in the
/// order of the acquire responses; an acquire is contended when it was
/// invoked before the previous holder invoked its release.
LockRow rowFromRecords(const void *Lock, const audit::Collected &C) {
  struct Acquire {
    std::uint64_t InvokeNs, ResponseNs, ReleaseInvokeNs;
  };
  std::vector<Acquire> Acqs;
  std::map<std::uint64_t, std::size_t> Open; // tid -> its held acquire
  for (const audit::OpRecord &R : C.Records) {
    if (R.Obj != reinterpret_cast<std::uintptr_t>(Lock))
      continue;
    if (R.M == audit::Method::Acq) {
      Open[R.Tid] = Acqs.size();
      Acqs.push_back({R.InvokeNs, R.ResponseNs, 0});
    } else if (auto It = Open.find(R.Tid); It != Open.end()) {
      Acqs[It->second].ReleaseInvokeNs = R.InvokeNs;
    }
  }
  std::sort(Acqs.begin(), Acqs.end(), [](const Acquire &A, const Acquire &B) {
    return A.ResponseNs < B.ResponseNs;
  });
  LockRow Row;
  Row.Dropped = C.Dropped;
  for (std::size_t K = 0; K != Acqs.size(); ++K) {
    Row.LatencyNs.push_back(Acqs[K].ResponseNs - Acqs[K].InvokeNs);
    if (K && Acqs[K].InvokeNs < Acqs[K - 1].ReleaseInvokeNs)
      ++Row.Contended;
  }
  std::sort(Row.LatencyNs.begin(), Row.LatencyNs.end());
  return Row;
}

/// \p Threads threads, started together, each run \p Iters acquire/release
/// rounds on one lock while the recorder is on.
template <typename Lock>
LockRow measure(const char *Name, unsigned Threads, std::uint64_t Iters) {
  // Every record of the row fits in its thread's ring (plus the warm-up
  // round below), so none drops.
  audit::setCapacity(2 * Iters + 2);
  Lock L;
  std::atomic<unsigned> Ready{0};
  auto Worker = [&] {
    // A thread's first record allocates its ring.  Do that on a private
    // lock here, not inside the first critical section, where it would
    // stall every other acquirer.
    Lock Warm;
    acquireRelease(Warm);
    // Spin, not block, until every thread is ready: a blocked thread takes
    // longer to wake than another takes to finish all its rounds.
    Ready.fetch_add(1);
    while (Ready.load() != Threads) {
    }
    for (std::uint64_t I = 0; I != Iters; ++I)
      acquireRelease(L);
    threadGhostLog().clear();
  };
  if (Threads == 1) {
    Worker();
  } else {
    std::vector<std::thread> Workers;
    for (unsigned T = 0; T != Threads; ++T)
      Workers.emplace_back(Worker);
    for (std::thread &W : Workers)
      W.join();
  }
  LockRow Row = rowFromRecords(&L, audit::collect());
  Row.Name = Name;
  Row.Threads = Threads;
  Row.Iters = Iters;
  return Row;
}

/// The row's self-check failure, or "" when it holds.
std::string rowProblem(const LockRow &Row) {
  if (Row.LatencyNs.size() != Row.Threads * Row.Iters)
    return "recorded " + std::to_string(Row.LatencyNs.size()) +
           " acquires, expected " + std::to_string(Row.Threads * Row.Iters);
  if (Row.Dropped)
    return std::to_string(Row.Dropped) + " records dropped";
  if (Row.Threads == 1 && Row.Contended)
    return "a single-thread row reports contention";
  return "";
}

/// Writes BENCH_locks.json: per-configuration acquire-latency quantiles
/// and contention counts, all derived from the audit recorder's records.
/// Returns false when a row fails its self-check.
bool emitLockJson() {
  const bool WasRecording = audit::enabled();
  const std::size_t OldCapacity = audit::capacity();
  audit::setEnabled(true);

  constexpr std::uint64_t Iters = 50000;
  constexpr std::uint64_t ContendedIters = 10000;
  unsigned Hw = std::thread::hardware_concurrency();
  unsigned ContendedThreads = Hw >= 4 ? 4 : (Hw >= 2 ? 2 : 1);

  std::vector<LockRow> Rows;
  Rows.push_back(measure<TicketLock<true>>("ticket.ghost", 1, Iters));
  Rows.push_back(measure<TicketLock<false>>("ticket.noghost", 1, Iters));
  Rows.push_back(measure<McsLock<true>>("mcs.ghost", 1, Iters));
  Rows.push_back(measure<McsLock<false>>("mcs.noghost", 1, Iters));
  Rows.push_back(measure<TicketLock<false>>("ticket.contended",
                                            ContendedThreads, ContendedIters));
  Rows.push_back(measure<McsLock<false>>("mcs.contended", ContendedThreads,
                                         ContendedIters));
  audit::setEnabled(WasRecording);
  audit::setCapacity(OldCapacity);

  std::FILE *F = std::fopen("BENCH_locks.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot open BENCH_locks.json\n");
    return false;
  }
  bool Ok = true;
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"bench\": \"lock_acquire_latency\",\n");
  std::fprintf(F, "  \"hardware_threads\": %u,\n", Hw);
  std::fprintf(F, "  \"locks\": [\n");
  for (std::size_t I = 0; I != Rows.size(); ++I) {
    const LockRow &Row = Rows[I];
    const std::vector<std::uint64_t> &Lat = Row.LatencyNs;
    double SumNs = 0;
    for (std::uint64_t Ns : Lat)
      SumNs += static_cast<double>(Ns);
    double MeanNs = Lat.empty() ? 0.0 : SumNs / static_cast<double>(Lat.size());
    std::fprintf(
        F,
        "    {\"name\": \"%s\", \"threads\": %u, \"acquires\": %zu, "
        "\"mean_ns\": %.1f, \"p50_ns\": %llu, \"p90_ns\": %llu, "
        "\"p99_ns\": %llu, \"max_ns\": %llu, \"contended\": %llu, "
        "\"dropped\": %llu}%s\n",
        Row.Name.c_str(), Row.Threads, Lat.size(), MeanNs,
        static_cast<unsigned long long>(quantile(Lat, 0.5)),
        static_cast<unsigned long long>(quantile(Lat, 0.9)),
        static_cast<unsigned long long>(quantile(Lat, 0.99)),
        static_cast<unsigned long long>(Lat.empty() ? 0 : Lat.back()),
        static_cast<unsigned long long>(Row.Contended),
        static_cast<unsigned long long>(Row.Dropped),
        I + 1 != Rows.size() ? "," : "");
    std::fprintf(stderr,
                 "lock latency: %-16s threads=%u p50=%lluns p99=%lluns "
                 "contended=%llu/%zu\n",
                 Row.Name.c_str(), Row.Threads,
                 static_cast<unsigned long long>(quantile(Lat, 0.5)),
                 static_cast<unsigned long long>(quantile(Lat, 0.99)),
                 static_cast<unsigned long long>(Row.Contended), Lat.size());
    std::string Problem = rowProblem(Row);
    if (!Problem.empty()) {
      std::fprintf(stderr, "lock latency: %s: %s\n", Row.Name.c_str(),
                   Problem.c_str());
      Ok = false;
    }
  }
  std::fprintf(F, "  ]\n");
  std::fprintf(F, "}\n");
  std::fclose(F);
  return Ok;
}

#endif // !CCAL_NO_AUDIT

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
#if defined(CCAL_NO_AUDIT)
  std::fprintf(stderr, "lock latency: built with CCAL_NO_AUDIT, so the audit "
                       "recorder is compiled out; BENCH_locks.json is not "
                       "written\n");
#else
  if (!emitLockJson())
    return 1;
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
