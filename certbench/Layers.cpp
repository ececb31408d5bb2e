//===- certbench/Layers.cpp - traced per-layer decomposition --------------===//
//
// The traced half.  For each job kind of a workload it first runs the job
// untraced through certd (the reference), then calls each layer's public
// entry points in the order a catalog job does — harness factory
// (objects), implConfig/specConfig (compcertx), exploreMachine on the spec
// and impl sides (machine), the outcome matching checkContextualRefinement
// performs (refine), and the certificate store (cert) — timing each from
// outside.  Calls hot enough to run millions of times (the per-state
// invariant, the per-outcome match) are tallied as count and total time in
// per-thread slots; the phases are obs spans written out as a Chrome trace
// when the run ends.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cert/CertStore.h"
#include "machine/Soundness.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>

using namespace ccal;
using namespace ccal::serve;

namespace certbench {

namespace {

std::uint64_t nowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Count and total time of one hot call site, one cache-line slot per
/// calling thread so concurrent Explorer workers never share a line.
class HotTally {
public:
  struct alignas(64) Slot {
    std::uint64_t Calls = 0;
    std::uint64_t Ns = 0;
  };

  Slot &mine() {
    thread_local std::uint64_t Owner = 0;
    thread_local Slot *Cached = nullptr;
    if (Owner != Id) {
      std::lock_guard<std::mutex> L(Mu);
      Cached = &Slots.emplace_back();
      Owner = Id;
    }
    return *Cached;
  }

  /// Sums the slots; call once the exploration has joined its workers.
  Slot total() {
    std::lock_guard<std::mutex> L(Mu);
    Slot T;
    for (const Slot &S : Slots) {
      T.Calls += S.Calls;
      T.Ns += S.Ns;
    }
    return T;
  }

private:
  static inline std::atomic<std::uint64_t> NextId{0};
  const std::uint64_t Id = ++NextId;
  std::mutex Mu;
  std::deque<Slot> Slots; ///< guarded by Mu; deque keeps slot addresses
};

/// One job kind, decomposed.
struct LayerRow {
  double HarnessMs = 0, CompileMs = 0, SpecS = 0, SpecSetMs = 0, ImplS = 0,
         ImplCpuS = 0;
  double InvariantS = 0, MatchS = 0;
  std::uint64_t InvariantCalls = 0, MatchCalls = 0, SpecOutcomes = 0;
  std::uint64_t MaxLogLen = 0, RfBranchPoints = 0, RfVariants = 0;
  std::vector<std::uint64_t> WorkerStates;
  unsigned Threads = 1;
  Counters C;
};

/// Builds and checks one job the way runObjectHarness and
/// checkContextualRefinement do, timing each layer.
LayerRow decompose(const JobKind &K, unsigned Threads) {
  LayerRow Row;
  Row.Threads = Threads;
  JobContext Ctx;
  Ctx.Threads = Threads;

  double T0 = wallNow();
  ObjectHarness H = [&] {
    obs::Span S("certbench.harness", "objects");
    return K.Make();
  }();
  applyContext(H, Ctx);
  double T1 = wallNow();
  MachineConfigPtr Impl, Spec;
  {
    obs::Span S("certbench.compile", "compcertx");
    Impl = H.implConfig();
    Spec = H.specConfig();
  }
  double T2 = wallNow();
  Row.HarnessMs = (T1 - T0) * 1e3;
  Row.CompileMs = (T2 - T1) * 1e3;

  ExploreResult SpecRes = [&] {
    obs::Span S("certbench.spec_explore", "machine");
    return exploreMachine(Spec, H.SpecOpts);
  }();
  double T3 = wallNow();
  Row.SpecS = T3 - T2;
  if (!SpecRes.Ok || !SpecRes.Complete) {
    Row.C.Coverage = SpecRes.Ok ? "truncated" : "refuted";
    return Row;
  }

  // The spec outcome set, canonicalized exactly when the checker does.
  LayerPtr SpecLayer = Spec->Layer;
  const bool Canon = H.ImplOpts.Por || H.SpecOpts.Por;
  auto CanonLog = [&SpecLayer, Canon](Log L) {
    if (!Canon)
      return L;
    return canonicalizeLog(
        L, [&SpecLayer](KindId Kind) { return SpecLayer->footprintOf(Kind); });
  };
  OutcomeSet SpecSet;
  {
    obs::Span S("certbench.spec_set", "refine");
    for (const Outcome &O : SpecRes.Outcomes) {
      Outcome Key;
      Key.FinalLog = CanonLog(O.FinalLog);
      Key.Returns = O.Returns;
      SpecSet.insert(Key);
    }
  }
  double T4 = wallNow();
  Row.SpecSetMs = (T4 - T3) * 1e3;

  HotTally Inv;
  std::uint64_t MatchNs = 0, MatchCalls = 0, Obligations = 0;
  ExploreOptions Opts = H.ImplOpts;
  Opts.CollectCorpus = true;
  if (auto Inner = Opts.Invariant)
    Opts.Invariant = [Inner, &Inv](const MultiCoreMachine &M) {
      HotTally::Slot &S = Inv.mine();
      std::uint64_t A = nowNs();
      std::string V = Inner(M);
      S.Ns += nowNs() - A;
      ++S.Calls;
      return V;
    };
  // The Explorer serializes OnOutcome, so plain tallies suffice here.
  Opts.OnOutcome = [&](const Outcome &O) -> std::string {
    std::uint64_t A = nowNs();
    Outcome Key;
    Key.FinalLog = CanonLog(H.R.apply(O.FinalLog));
    Key.Returns = O.Returns;
    bool Found = SpecSet.contains(Key);
    MatchNs += nowNs() - A;
    ++MatchCalls;
    if (!Found)
      return "no specification behavior matches implementation outcome";
    ++Obligations;
    return "";
  };
  double Cpu0 = cpuNow();
  ExploreResult ImplRes = [&] {
    obs::Span S("certbench.impl_explore", "machine");
    return exploreMachine(Impl, Opts);
  }();
  Row.ImplCpuS = cpuNow() - Cpu0;
  Row.ImplS = wallNow() - T4;

  HotTally::Slot InvT = Inv.total();
  Row.InvariantS = static_cast<double>(InvT.Ns) * 1e-9;
  Row.InvariantCalls = InvT.Calls;
  Row.MatchS = static_cast<double>(MatchNs) * 1e-9;
  Row.MatchCalls = MatchCalls;
  Row.SpecOutcomes = SpecRes.Outcomes.size();
  Row.MaxLogLen = std::max(SpecRes.MaxLogLen, ImplRes.MaxLogLen);
  Row.RfBranchPoints =
      SpecRes.ReadsFromBranchPoints + ImplRes.ReadsFromBranchPoints;
  Row.RfVariants = SpecRes.ReadsFromVariants + ImplRes.ReadsFromVariants;
  Row.WorkerStates = ImplRes.WorkerStates;
  Row.C.Schedules = SpecRes.SchedulesExplored + ImplRes.SchedulesExplored;
  Row.C.States = SpecRes.StatesExplored + ImplRes.StatesExplored;
  Row.C.Obligations = Obligations;
  Row.C.Coverage = !ImplRes.Ok         ? "refuted"
                   : !ImplRes.Complete ? "truncated"
                                       : "exhaustive";
  return Row;
}

/// Certificate-store costs of one kind: a warm hit, the entry size, and
/// what turning the store on costs a cold check.
struct CertRow {
  double HitMs = 0, EntryKb = 0, MissStoreMs = 0;
};

/// The cold store-on and store-off checks are re-run here, so this is for
/// the small kinds only.
CertRow certCosts(const JobKind &K, unsigned Threads, unsigned Reps,
                  const std::string &Dir) {
  JobContext Ctx;
  Ctx.Threads = Threads;
  ObjectHarness H = K.Make();
  applyContext(H, Ctx);
  MachineConfigPtr Impl = H.implConfig(), Spec = H.specConfig();
  auto TimedCheck = [&] {
    double T0 = wallNow();
    checkContextualRefinement(Impl, Spec, H.R, H.ImplOpts, H.SpecOpts);
    return (wallNow() - T0) * 1e3;
  };
  std::vector<double> Off, On, Hit;
  obs::Span S("certbench.cert", "cert");
  for (unsigned I = 0; I != Reps; ++I) {
    cert::setStoreDir("");
    Off.push_back(TimedCheck());
    std::string StoreDir = Dir + "/" + K.Name + "." + std::to_string(I);
    cert::setStoreDir(StoreDir);
    On.push_back(TimedCheck());
    if (K.ExpectHolds)
      Hit.push_back(TimedCheck());
  }
  CertRow R;
  R.MissStoreMs = median(On) - median(Off);
  if (K.ExpectHolds) {
    R.HitMs = median(Hit);
    std::vector<std::string> Files = listFiles(Dir + "/" + K.Name + ".0");
    R.EntryKb = Files.empty() ? 0 : fileKb(Files.front());
  }
  cert::setStoreDir("");
  return R;
}

/// The heavy kind's certificate costs, from the entry its reference job
/// stored: a warm hit re-runs the front-end against that store, and the
/// store-on miss cost is measured directly (a miss lookup plus writing the
/// same entry into an empty store), since a second cold run costs a minute.
CertRow heavyCertCosts(const JobKind &K, unsigned Threads,
                       const std::string &RefStore, const std::string &Dir) {
  CertRow R;
  std::vector<std::string> Files = listFiles(RefStore);
  if (Files.size() != 1)
    return R;
  R.EntryKb = fileKb(Files.front());

  JobContext Ctx;
  Ctx.Threads = Threads;
  ObjectHarness H = K.Make();
  applyContext(H, Ctx);
  MachineConfigPtr Impl = H.implConfig(), Spec = H.specConfig();
  obs::Span S("certbench.cert", "cert");
  std::vector<double> Hit, Miss;
  cert::setStoreDir(RefStore);
  for (int I = 0; I != 3; ++I) {
    std::uint64_t Hits0 = obs::counterValue("cert.hits");
    double T0 = wallNow();
    checkContextualRefinement(Impl, Spec, H.R, H.ImplOpts, H.SpecOpts);
    Hit.push_back((wallNow() - T0) * 1e3);
    // A miss re-explored the whole job; never pay that twice.
    if (obs::counterValue("cert.hits") == Hits0) {
      std::printf("FLAG %s: the stored entry was not served as a hit\n",
                  K.Name.c_str());
      break;
    }
  }
  cert::setStoreDir("");
  R.HitMs = median(Hit);

  // Re-address the stored entry from its own header fields.
  std::string Text;
  {
    std::FILE *F = std::fopen(Files.front().c_str(), "rb");
    if (!F)
      return R;
    char Buf[1 << 16];
    std::size_t N;
    while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
      Text.append(Buf, N);
    std::fclose(F);
  }
  JsonParseResult Doc = parseJson(Text);
  const JsonValue *Checker = Doc.Value.field("checker");
  const JsonValue *Version = Doc.Value.field("version");
  const JsonValue *Hex = Doc.Value.field("key");
  if (!Doc || !Checker || !Version || !Hex || !Hex->isString())
    return R;
  cert::CertKey Key;
  Key.Checker = Checker->StrVal;
  Key.Version = Version->StrVal;
  Key.Hash = std::strtoull(Hex->StrVal.c_str(), nullptr, 16);
  cert::CertStore::Entry E;
  if (!cert::CertStore(RefStore).load(Key, E))
    return R;
  for (int I = 0; I != 3; ++I) {
    cert::CertStore Empty(Dir + "/heavy-miss." + std::to_string(I));
    cert::CertStore::Entry Probe;
    double T0 = wallNow();
    Empty.load(Key, Probe);
    Empty.store(Key, E);
    Miss.push_back((wallNow() - T0) * 1e3);
  }
  R.MissStoreMs = median(Miss);
  return R;
}

std::string countersText(const Counters &C) {
  return "schedules=" + std::to_string(C.Schedules) +
         " states=" + std::to_string(C.States) +
         " obligations=" + std::to_string(C.Obligations) +
         " coverage=" + C.Coverage;
}

} // namespace

RunResult runTraced(const WorkloadSpec &W, const std::string &WorkDir,
                    const std::string &TracePath) {
  RunResult Out;
  const double RunStart = wallNow();
  const bool Heavy = W.Store == WorkloadSpec::StoreMode::FreshPerJob;
  const bool Warm = W.Store == WorkloadSpec::StoreMode::WarmFilled;
  const unsigned RefReps = Heavy ? 1 : 7, DecompReps = Heavy ? 1 : 5;

  // 1. The untraced reference: each kind through certd, serially.
  Rig R(W, WorkDir + "/trace-rig");
  std::string Err;
  if (!R.setUp(Out, Err)) {
    std::printf("FAILED set-up: %s\n", Err.c_str());
    Out.Correct = false;
    return Out;
  }
  struct Ref {
    std::vector<double> Rtt, Wall;
    Counters C;
  };
  std::map<std::string, Ref> Refs;
  std::string HeavyStore;
  const char *CertCounters[] = {"cert.hits", "cert.misses", "cert.stores",
                                "cert.rejections"};
  std::uint64_t Cert0[4];
  for (int I = 0; I != 4; ++I)
    Cert0[I] = obs::counterValue(CertCounters[I]);
  for (const JobKind *K : W.Kinds)
    for (unsigned I = 0; I != RefReps; ++I) {
      if (Heavy)
        R.freshStore();
      JobResult Res;
      double Rtt = 0;
      Counters C;
      std::string E = runOneCounted(R, *K, Res, Rtt, C, R.requireHit());
      ++Out.Attempted;
      if (!E.empty()) {
        Out.fail(E);
        continue;
      }
      Ref &F = Refs[K->Name];
      F.Rtt.push_back(Rtt);
      F.Wall.push_back(Res.WallMs);
      if (I == 0)
        F.C = C;
      if (Heavy)
        HeavyStore = R.storeDir();
    }
  double CertDelta[4];
  for (int I = 0; I != 4; ++I)
    CertDelta[I] =
        static_cast<double>(obs::counterValue(CertCounters[I]) - Cert0[I]);
  // Warm hits explore nothing, so their states come from the fill pass.
  std::map<std::string, Counters> Fill = R.setupCounters();
  R.tearDown();

  // 2. The decomposition, per kind.
  double CompileMs = 0, HarnessMs = 0, SpecS = 0, ImplS = 0, SelfS = 0,
         InvS = 0, MatchS = 0, ImplCpu = 0, ImplWorkerWall = 0, HitMs = 0,
         EntryKb = 0, MissMs = 0, RttMs = 0, WallMs = 0, TracedMs = 0,
         Balance = 1;
  std::uint64_t Schedules = 0, States = 0, MaxLog = 0, InvCalls = 0,
                MatchCalls = 0, Obligations = 0, SpecOutcomes = 0, RfBp = 0,
                RfVar = 0, PinsChanged = 0;
  for (const JobKind *K : W.Kinds) {
    auto RefIt = Refs.find(K->Name);
    if (RefIt == Refs.end())
      continue; // its reference job failed; already counted
    Ref &F = RefIt->second;
    // Decomposing repeats the job's exploration.  On a host slow enough
    // that the repeat would overrun the run's 180 s limit, report the
    // reference alone rather than no result at all.
    if (Heavy && wallNow() - RunStart + 1.2 * median(F.Wall) / 1e3 > 160) {
      std::printf("SKIPPED decomposing %s: its job took %.1f s, too long to "
                  "repeat traced within the run's limit\n",
                  K->Name.c_str(), median(F.Wall) / 1e3);
      continue;
    }
    Counters RefC = F.C;
    if (Warm) {
      RefC.States = Fill[K->Name].States;
      RefC.Coverage = Fill[K->Name].Coverage;
    }

    std::vector<LayerRow> Rows;
    for (unsigned I = 0; I != DecompReps; ++I)
      Rows.push_back(decompose(*K, W.ThreadsPerJob));
    auto Med = [&Rows](double LayerRow::*Field) {
      std::vector<double> V;
      for (const LayerRow &L : Rows)
        V.push_back(L.*Field);
      return median(V);
    };
    const LayerRow &L = Rows.front();
    for (const LayerRow &X : Rows)
      if (X.C.Schedules != L.C.Schedules || X.C.States != L.C.States ||
          X.C.Obligations != L.C.Obligations)
        Out.fail(K->Name + ": decomposition counters vary between runs");

    // Self-check: the decomposition explores exactly what the job did.
    ++Out.Attempted;
    if (L.C.Schedules != RefC.Schedules || L.C.States != RefC.States ||
        L.C.Obligations != RefC.Obligations ||
        L.C.Coverage != RefC.Coverage)
      Out.fail(K->Name + ": traced " + countersText(L.C) + " but untraced " +
               countersText(RefC));
    if (reportAgainstPin(K->Name, L.C))
      ++PinsChanged;

    CertRow CR = Heavy ? heavyCertCosts(*K, W.ThreadsPerJob, HeavyStore,
                                        WorkDir + "/trace-cert")
                       : certCosts(*K, W.ThreadsPerJob, DecompReps,
                                   WorkDir + "/trace-cert");

    const double Harness = Med(&LayerRow::HarnessMs),
                 Compile = Med(&LayerRow::CompileMs),
                 Spec = Med(&LayerRow::SpecS), Impl = Med(&LayerRow::ImplS),
                 Inv = Med(&LayerRow::InvariantS),
                 Match = Med(&LayerRow::MatchS),
                 Cpu = Med(&LayerRow::ImplCpuS),
                 SpecSet = Med(&LayerRow::SpecSetMs);
    const double RefWall = median(F.Wall), RefRtt = median(F.Rtt);
    // The traced path of the same work the untraced job did: a warm job
    // builds, compiles and loads; a cold one builds, compiles, explores.
    const double Traced =
        Warm && K->ExpectHolds
            ? Harness + Compile + CR.HitMs
            : Harness + Compile + (Spec + Impl) * 1e3 + SpecSet;
    std::printf("layers %-22s harness %.3f ms  compile %.3f ms  spec %.6f s  "
                "spec-set %.3f ms  impl %.6f s (invariant %.6f s, match "
                "%.6f s, cpu %.6f s)  hit %.3f ms  entry %.1f KiB  "
                "miss-store %.3f ms\n",
                K->Name.c_str(), Harness, Compile, Spec, SpecSet, Impl, Inv,
                Match, Cpu, CR.HitMs, CR.EntryKb, CR.MissStoreMs);
    std::printf("account %-21s untraced job %.3f ms, traced layers %.3f ms, "
                "unattributed %.3f ms; round trip %.3f ms\n",
                K->Name.c_str(), RefWall, Traced, RefWall - Traced, RefRtt);

    HarnessMs += Harness;
    CompileMs += Compile;
    SpecS += Spec;
    ImplS += Impl;
    InvS += Inv;
    MatchS += Match;
    ImplCpu += Cpu;
    SelfS += Cpu - Inv - Match;
    ImplWorkerWall += Impl * L.Threads;
    HitMs += CR.HitMs;
    EntryKb += CR.EntryKb;
    MissMs += CR.MissStoreMs;
    RttMs += RefRtt;
    WallMs += RefWall;
    TracedMs += Traced;
    Schedules += L.C.Schedules;
    States += L.C.States;
    Obligations += L.C.Obligations;
    MaxLog = std::max(MaxLog, L.MaxLogLen);
    InvCalls += L.InvariantCalls;
    MatchCalls += L.MatchCalls;
    SpecOutcomes += L.SpecOutcomes;
    RfBp += L.RfBranchPoints;
    RfVar += L.RfVariants;
    if (L.WorkerStates.size() > 1) {
      std::uint64_t Max = *std::max_element(L.WorkerStates.begin(),
                                            L.WorkerStates.end());
      double Mean = 0;
      for (std::uint64_t N : L.WorkerStates)
        Mean += static_cast<double>(N);
      Mean /= static_cast<double>(L.WorkerStates.size());
      if (Max)
        Balance = std::min(Balance, Mean / static_cast<double>(Max));
      std::printf("workers %-21s", K->Name.c_str());
      for (std::uint64_t N : L.WorkerStates)
        std::printf(" %llu", static_cast<unsigned long long>(N));
      std::printf(" states\n");
    }
  }

  if (!TracePath.empty() && obs::writeChromeTrace(TracePath))
    std::printf("trace written to %s\n", TracePath.c_str());

  auto Count = [](std::uint64_t N) { return static_cast<double>(N); };
  Out.add("objects.harness_ms", HarnessMs, "ms");
  Out.add("compcertx.compile_ms", CompileMs, "ms");
  Out.add("explorer.spec_s", SpecS, "s");
  Out.add("explorer.impl_s", ImplS, "s");
  Out.add("explorer.self_s", SelfS, "s");
  Out.add("explorer.schedules", Count(Schedules), "count");
  Out.add("explorer.states", Count(States), "count");
  Out.add("explorer.states_per_s",
          SpecS + ImplS > 0 ? Count(States) / (SpecS + ImplS) : 0, "1/s");
  Out.add("explorer.max_log_len", Count(MaxLog), "count");
  Out.add("explorer.utilization",
          ImplWorkerWall > 0 ? ImplCpu / ImplWorkerWall : 0, "share");
  Out.add("explorer.balance", Balance, "share");
  Out.add("explorer.rf_branching", RfBp ? Count(RfVar) / Count(RfBp) : 0,
          "ratio");
  Out.add("objects.invariant_s", InvS, "s");
  Out.add("objects.invariant_calls", Count(InvCalls), "count");
  Out.add("objects.invariant_ns", InvCalls ? InvS * 1e9 / Count(InvCalls) : 0,
          "ns");
  Out.add("refine.match_s", MatchS, "s");
  Out.add("refine.match_calls", Count(MatchCalls), "count");
  Out.add("refine.obligations", Count(Obligations), "count");
  Out.add("refine.spec_outcomes", Count(SpecOutcomes), "count");
  Out.add("cert.hit_ms", HitMs, "ms");
  Out.add("cert.entry_kb", EntryKb, "KiB");
  Out.add("cert.miss_store_ms", MissMs, "ms");
  Out.add("cert.hits", CertDelta[0], "count");
  Out.add("cert.misses", CertDelta[1], "count");
  Out.add("cert.stores", CertDelta[2], "count");
  Out.add("cert.rejections", CertDelta[3], "count");
  Out.add("serve.rtt_ms", RttMs, "ms");
  Out.add("serve.job_wall_ms", WallMs, "ms");
  Out.add("serve.overhead_ms", RttMs - WallMs, "ms");
  Out.add("trace.overhead_pct",
          WallMs > 0 ? (TracedMs - WallMs) / WallMs * 100 : 0, "%");
  Out.add("trace.unattributed_ms", WallMs - TracedMs, "ms");
  Out.add("pins.changed", Count(PinsChanged), "count");
  Out.add("process.peak_rss_mb", peakRssMb(), "MiB");
  Out.add("failed_share",
          Out.Attempted ? Count(Out.Failed) / Count(Out.Attempted) : 0,
          "share");
  Out.SequenceLen = Out.Attempted;
  return Out;
}

} // namespace certbench
