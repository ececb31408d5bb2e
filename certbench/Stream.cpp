//===- certbench/Stream.cpp - certd closed-loop workloads -----------------===//
//
// The untraced half: whole certification jobs through an in-process certd
// and CertClient connections, closed loop (each client sends its next
// one-job request only after the reply, as a blocking ccal-verify does).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cert/CertStore.h"
#include "obs/Metrics.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

using namespace ccal;
using namespace ccal::serve;
namespace fs = std::filesystem;

namespace certbench {

const WorkloadSpec *findWorkload(const std::string &Name) {
  static const std::vector<WorkloadSpec> All = [] {
    std::vector<const JobKind *> Catalog;
    for (const JobKind &K : catalogKinds())
      Catalog.push_back(&K);
    using SM = WorkloadSpec::StoreMode;
    return std::vector<WorkloadSpec>{
        {"ticket-heavy", {&heavyKind()}, 1, 1, 4, SM::FreshPerJob, 15},
        {"catalog-cold", Catalog, 2, 2, 1, SM::Off, 21},
        {"catalog-warm", Catalog, 2, 2, 1, SM::WarmFilled, 15},
    };
  }();
  for (const WorkloadSpec &W : All)
    if (W.Name == Name)
      return &W;
  return nullptr;
}

// --- Rig -------------------------------------------------------------------

namespace {

/// Paths in \p After but not in \p Before (both sorted).
std::vector<std::string> newFiles(const std::vector<std::string> &Before,
                                  const std::vector<std::string> &After) {
  std::vector<std::string> New;
  std::set_difference(After.begin(), After.end(), Before.begin(),
                      Before.end(), std::back_inserter(New));
  return New;
}

} // namespace

Rig::Rig(const WorkloadSpec &W, const std::string &Dir) : W(W), Dir(Dir) {}

Rig::~Rig() { tearDown(); }

void Rig::freshStore() {
  StoreDir = Dir + "/store" + std::to_string(StoreSeq++);
  std::error_code Ec;
  fs::remove_all(StoreDir, Ec);
  cert::setStoreDir(StoreDir);
}

bool Rig::setUp(RunResult &Out, std::string &Err) {
  std::error_code Ec;
  fs::create_directories(Dir, Ec);
  if (W.Store == WorkloadSpec::StoreMode::Off)
    cert::setStoreDir("");
  else
    freshStore();

  CertdOptions O;
  O.SocketPath = Dir + "/certd.sock";
  O.Workers = W.Workers;
  O.ThreadsPerJob = W.ThreadsPerJob;
  Daemon = std::make_unique<Certd>(O);
  if (!Daemon->start(Err))
    return false;
  Clients.resize(W.Clients);
  for (CertClient &C : Clients)
    if (!C.connect(O.SocketPath, Err))
      return false;

  // A warm store is filled cold, one kind at a time, and each correct kind
  // must add exactly its own entry.
  auto Serial = [&](const JobKind &K, bool RequireHit) {
    std::vector<std::string> Before = listFiles(StoreDir);
    JobResult R;
    double Rtt = 0;
    Counters C;
    std::string E = runOneCounted(*this, K, R, Rtt, C, RequireHit);
    ++Out.Attempted;
    if (!E.empty())
      Out.fail("set-up: " + E);
    if (!RequireHit)
      SetupCounters[K.Name] = C;
    return newFiles(Before, listFiles(StoreDir));
  };

  const bool Warm = W.Store == WorkloadSpec::StoreMode::WarmFilled;
  if (Warm)
    for (const JobKind *K : W.Kinds) {
      std::vector<std::string> New = Serial(*K, false);
      if (New.size() != (K->ExpectHolds ? 1u : 0u)) {
        Err = K->Name + ": filling the store wrote " +
              std::to_string(New.size()) + " entries";
        return false;
      }
    }

  // One warm-up job per kind.  The heavy job is too long to warm up with,
  // so its workload warms the same harness family and Explorer pool with
  // ticket.2cpu; its measured jobs each get a fresh empty store anyway.
  if (W.Store == WorkloadSpec::StoreMode::FreshPerJob) {
    JobResult R;
    double Rtt = 0;
    std::string E = runOne(0, catalogKinds().front(), R, Rtt, false);
    ++Out.Attempted;
    if (!E.empty())
      Out.fail("set-up: " + E);
  } else {
    for (const JobKind *K : W.Kinds)
      Serial(*K, Warm);
  }
  return true;
}

std::string Rig::runOne(unsigned Client, const JobKind &K, JobResult &R,
                        double &RttMs, bool RequireHit) {
  VerifyResponse Resp;
  std::string Err;
  double T0 = wallNow();
  bool Ok = Clients[Client].verify({K.Name}, {}, Resp, Err);
  RttMs = (wallNow() - T0) * 1e3;
  std::string E = exchangeError(Ok, Err, Resp, K.Name);
  if (!E.empty())
    return E;
  R = Resp.Results.front();
  return verdictError(K, R, RequireHit);
}

void Rig::tearDown() {
  for (CertClient &C : Clients)
    C.close();
  Clients.clear();
  if (Daemon) {
    Daemon->shutdown();
    Daemon.reset();
  }
  cert::setStoreDir("");
}

std::string runOneCounted(Rig &R, const JobKind &K, JobResult &Res,
                          double &RttMs, Counters &C, bool RequireHit) {
  std::uint64_t States0 = obs::counterValue("explorer.states_explored");
  std::string E = R.runOne(0, K, Res, RttMs, RequireHit);
  C.Schedules = Res.Schedules;
  C.Obligations = Res.Obligations;
  C.States = obs::counterValue("explorer.states_explored") - States0;
  C.Coverage = coverageOf(Res);
  return E;
}

// --- the measured stream ---------------------------------------------------

namespace {

/// One completed request.
struct Sample {
  unsigned Kind = 0;
  double RttMs = 0;
  JobResult R;
  std::uint64_t States = 0; ///< registry delta; single-client runs only
  double EndWall = 0;
  std::string Error;
};

/// One slice of the measured window.
struct Slice {
  double Begin = 0, End = 0, Cpu0 = 0, Cpu1 = 0;
  double RssMb = 0; ///< highest resident memory sampled in the slice
  std::vector<double> Rtt;
};

/// Client \p C's job sequence: rounds of a seeded permutation of the kinds,
/// so every kind is drawn equally often and only the order is random.
std::vector<unsigned> jobSequence(std::uint64_t Seed, unsigned C,
                                  unsigned Kinds, std::size_t Len) {
  Rng G(Seed * 0x9e3779b97f4a7c15ULL + C + 1);
  std::vector<unsigned> Seq;
  std::vector<unsigned> Round(Kinds);
  while (Seq.size() < Len) {
    for (unsigned I = 0; I != Kinds; ++I)
      Round[I] = I;
    for (unsigned I = Kinds; I > 1; --I)
      std::swap(Round[I - 1], Round[G.below(I)]);
    Seq.insert(Seq.end(), Round.begin(), Round.end());
  }
  Seq.resize(Len);
  return Seq;
}

} // namespace

RunResult runEndToEnd(const WorkloadSpec &W, std::uint64_t Seed,
                      double Seconds, const std::string &WorkDir) {
  RunResult Out;
  std::vector<double> SetupS;
  std::unique_ptr<Rig> R;
  for (unsigned I = 0; I != W.SetupReps; ++I) {
    if (R)
      R->tearDown();
    R = std::make_unique<Rig>(W, WorkDir + "/rig" + std::to_string(I));
    std::string Err;
    double T0 = wallNow();
    if (!R->setUp(Out, Err)) {
      std::printf("FAILED set-up: %s\n", Err.c_str());
      Out.Correct = false;
      return Out;
    }
    SetupS.push_back(wallNow() - T0);
  }

  const bool FreshPerJob = W.Store == WorkloadSpec::StoreMode::FreshPerJob;
  const std::size_t SeqLen = 1u << 16;
  std::vector<std::vector<Sample>> PerClient(W.Clients);
  const double Start = wallNow();
  const double Deadline = Start + Seconds;
  auto ClientMain = [&](unsigned C) {
    std::vector<unsigned> Seq =
        jobSequence(Seed, C, static_cast<unsigned>(W.Kinds.size()), SeqLen);
    for (std::size_t I = 0; I != SeqLen; ++I) {
      // At least one job per client, so a job longer than the whole
      // window still yields a sample.
      if (I != 0 && wallNow() >= Deadline)
        break;
      Sample S;
      S.Kind = Seq[I];
      if (FreshPerJob)
        R->freshStore(); // every heavy job writes into an empty store
      std::uint64_t States0 = obs::counterValue("explorer.states_explored");
      S.Error =
          R->runOne(C, *W.Kinds[S.Kind], S.R, S.RttMs, R->requireHit());
      S.States = obs::counterValue("explorer.states_explored") - States0;
      if (S.Error.empty() && FreshPerJob &&
          (S.R.CertHits != 0 || S.R.CertStores == 0))
        S.Error = W.Kinds[S.Kind]->Name +
                  ": cold job did not write exactly its own certificate";
      S.EndWall = wallNow();
      PerClient[C].push_back(std::move(S));
    }
  };

  // The window is cut into slices and each metric is computed per slice,
  // the median over slices reported: a burst of outside load moves one
  // slice, not the result.  A sampler thread closes the slices (process
  // CPU at each boundary) and tracks resident memory every few ms.
  const unsigned NumSlices = W.Clients > 1 ? 6 : 1;
  std::vector<Slice> Slices(NumSlices);
  std::atomic<bool> Done{false};
  Slices[0].Begin = Start;
  Slices[0].Cpu0 = cpuNow();
  std::thread Sampler([&] {
    unsigned I = 0;
    while (!Done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      Slices[I].RssMb = std::max(Slices[I].RssMb, currentRssMb());
      double Now = wallNow();
      if (I + 1 < NumSlices && Now >= Start + Seconds * (I + 1) / NumSlices) {
        Slices[I].End = Slices[I + 1].Begin = Now;
        Slices[I].Cpu1 = Slices[I + 1].Cpu0 = cpuNow();
        ++I;
      }
    }
  });
  std::vector<std::thread> Threads;
  for (unsigned C = 0; C != W.Clients; ++C)
    Threads.emplace_back(ClientMain, C);
  for (std::thread &T : Threads)
    T.join();
  Done.store(true);
  Sampler.join();
  Slices.back().Cpu1 = cpuNow();
  Slices.back().End = Start;
  for (auto &V : PerClient)
    for (const Sample &S : V)
      Slices.back().End = std::max(Slices.back().End, S.EndWall);
  Slices.back().RssMb = std::max(Slices.back().RssMb, currentRssMb());

  // Kinds not run serially in set-up (the heavy job) take their counters
  // from the first measured job; with one client the jobs are serial, so
  // the registry's state delta is exact there.
  std::vector<Sample> All;
  for (auto &V : PerClient)
    for (Sample &S : V)
      All.push_back(std::move(S));

  std::map<unsigned, std::vector<double>> RttOf, WallOf;
  std::map<std::string, Counters> Seen = R->setupCounters();
  unsigned Nondet = 0;
  for (const Sample &S : All) {
    ++Out.Attempted;
    if (!S.Error.empty()) {
      Out.fail(S.Error);
      continue;
    }
    RttOf[S.Kind].push_back(S.RttMs);
    WallOf[S.Kind].push_back(S.R.WallMs);
    Slice *Sl = &Slices.back();
    for (Slice &X : Slices)
      if (S.EndWall <= X.End) {
        Sl = &X;
        break;
      }
    Sl->Rtt.push_back(S.RttMs);
    const std::string &Name = W.Kinds[S.Kind]->Name;
    auto It = Seen.find(Name);
    if (It == Seen.end()) {
      Counters C;
      C.Schedules = S.R.Schedules;
      C.Obligations = S.R.Obligations;
      C.States = S.States;
      C.Coverage = coverageOf(S.R);
      Seen[Name] = C;
    } else if (It->second.Schedules != S.R.Schedules ||
               It->second.Obligations != S.R.Obligations) {
      ++Nondet;
    }
  }
  Out.SequenceLen = All.size();

  std::size_t Completed = 0;
  for (const auto &[K, V] : RttOf)
    Completed += V.size();
  std::printf("measured %.3f s, %zu jobs over %u client(s), %u slice(s)\n",
              Slices.back().End - Start, All.size(), W.Clients, NumSlices);
  for (const auto &[K, V] : RttOf)
    std::printf("  %-22s n=%-5zu rtt p10 %9.3f ms  p50 %9.3f ms  "
                "p99 %9.3f ms  daemon wall p50 %9.3f ms\n",
                W.Kinds[K]->Name.c_str(), V.size(), quantile(V, 0.10),
                median(V), quantile(V, 0.99), median(WallOf[K]));
  if (Nondet)
    std::printf("FLAG %u job(s) reported counters different from an earlier "
                "run of the same kind\n",
                Nondet);
  for (const JobKind *K : W.Kinds) {
    auto It = Seen.find(K->Name);
    if (It != Seen.end())
      reportAgainstPin(K->Name, It->second);
  }

  R->tearDown();

  std::vector<double> Verdict, Cpu, Rate, Rss, AllRtt;
  for (const Slice &X : Slices) {
    if (X.Rtt.empty())
      continue;
    const double N = static_cast<double>(X.Rtt.size());
    Verdict.push_back(mean(X.Rtt) / 1e3);
    Cpu.push_back((X.Cpu1 - X.Cpu0) / N * 1e3);
    Rate.push_back(N / (X.End - X.Begin));
    Rss.push_back(X.RssMb);
    AllRtt.insert(AllRtt.end(), X.Rtt.begin(), X.Rtt.end());
  }
  if (Verdict.empty()) {
    Out.Correct = false;
    return Out;
  }
  // Job latency is taken per kind over the whole window, then averaged
  // over the kinds: their costs differ by two orders of magnitude and the
  // stream draws them equally often, so a pooled quantile would sit on the
  // boundary between two kinds and jump between them.  The gated quantile
  // is the 10th percentile: on a shared host the cores alternate, second
  // by second, between full speed and phases about 1.5x slower, and the
  // share of slow phases in a run moves the median from one mode to the
  // other; the fastest tenth of each kind's jobs is the program's own cost.
  std::vector<double> KindP10, KindP50;
  for (const auto &[K, V] : RttOf) {
    KindP10.push_back(quantile(V, 0.10));
    KindP50.push_back(median(V));
  }
  std::printf("slices:");
  for (std::size_t I = 0; I != Verdict.size(); ++I)
    std::printf(" [verdict %.3f ms, %.1f jobs/s]", Verdict[I] * 1e3, Rate[I]);
  std::printf("\n");
  Out.add("verdict_s", median(Verdict), "s");
  Out.add("cpu_per_job_ms", median(Cpu), "ms");
  Out.add("jobs_per_s", median(Rate), "1/s");
  Out.add("job_p10_ms", mean(KindP10), "ms");
  Out.add("setup_s", median(SetupS), "s");
  // Printed, not in the result: on a shared host the median and the pooled
  // tail, and the allocator-dependent peak of the catalog runs, spread too
  // widely between runs for a regression bound (see README.md).
  std::printf("job_p50_ms %.3f ms (per-kind medians averaged over the kinds)\n",
              mean(KindP50));
  std::printf("job_p99_ms %.3f ms (%zu completed jobs, %zu beyond it)\n",
              quantile(AllRtt, 0.99), Completed, Completed / 100);
  std::printf("peak_rss_mb %.3f MiB (median of %zu slice peaks)\n",
              median(Rss), Rss.size());
  std::printf("samples: %zu slice(s), %zu set-ups\n", Verdict.size(),
              SetupS.size());
  return Out;
}

} // namespace certbench
