//===- bench/bench_explorer.cpp - Model-checking throughput ----------------------===//
//
// Measures the verification machinery itself: schedules and states
// explored per second on the Fig. 3 stack, full ticket-lock contextual
// refinement, and the Def 2.1 strategy-simulation checker — the
// "proof-checking speed" of the executable substitute for Coq.
//
//===----------------------------------------------------------------------===//

#include "cert/CertStore.h"
#include "compcertx/Linker.h"
#include "core/EnvContext.h"
#include "core/Simulation.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "machine/Explorer.h"
#include "machine/MemoryModel.h"
#include "machine/Soundness.h"
#include "objects/McsLock.h"
#include "objects/TicketLock.h"
#include "obs/Metrics.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <thread>

using namespace ccal;

namespace {

MachineConfigPtr makeFig3Config() {
  static TicketLockLayers Layers = makeTicketLockLayers();
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("P", R"(
      extern void acq();
      extern void rel();
      extern int f();
      extern int g();
      int t_main() {
        acq();
        int a = f();
        int b = g();
        rel();
        return a * 10 + b;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  static ClightModule Ticket = cloneModule(Layers.M1);
  static AsmProgramPtr Prog =
      compileAndLink("fig3.lasm", {&Client, &Ticket});
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "fig3";
  Cfg->Layer = Layers.L0;
  Cfg->Program = Prog;
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

void exploreFig3(benchmark::State &State) {
  MachineConfigPtr Cfg = makeFig3Config();
  std::uint64_t Schedules = 0, States = 0;
  for (auto _ : State) {
    ExploreOptions Opts;
    Opts.FairnessBound = 2;
    Opts.MaxSteps = 256;
    ExploreResult Res = exploreMachine(Cfg, Opts);
    benchmark::DoNotOptimize(Res.SchedulesExplored);
    Schedules += Res.SchedulesExplored;
    States += Res.StatesExplored;
  }
  State.counters["schedules/s"] = benchmark::Counter(
      static_cast<double>(Schedules), benchmark::Counter::kIsRate);
  State.counters["states/s"] = benchmark::Counter(
      static_cast<double>(States), benchmark::Counter::kIsRate);
}
BENCHMARK(exploreFig3)->Name("Explorer/fig3_all_schedules")
    ->Unit(benchmark::kMillisecond);

void certifyTicket(benchmark::State &State) {
  std::uint64_t Obligations = 0;
  for (auto _ : State) {
    HarnessOutcome Out = certifyTicketLock(2);
    benchmark::DoNotOptimize(Out.Report.Holds);
    Obligations += Out.Report.ObligationsChecked;
  }
  State.counters["obligations/s"] = benchmark::Counter(
      static_cast<double>(Obligations), benchmark::Counter::kIsRate);
}
BENCHMARK(certifyTicket)->Name("Refinement/ticket_lock_full")
    ->Unit(benchmark::kMillisecond);

/// The same full contextual refinement with the implementation machine
/// under MemoryModel::Ra — the per-schedule cost of reads-from
/// enumeration on a correctly annotated lock (whose acquire joins collapse
/// most menus).
void certifyTicketRa(benchmark::State &State) {
  std::uint64_t Obligations = 0;
  for (auto _ : State) {
    HarnessOutcome Out = certifyTicketLockRa(2);
    benchmark::DoNotOptimize(Out.Report.Holds);
    Obligations += Out.Report.ObligationsChecked;
  }
  State.counters["obligations/s"] = benchmark::Counter(
      static_cast<double>(Obligations), benchmark::Counter::kIsRate);
}
BENCHMARK(certifyTicketRa)->Name("Refinement/ticket_lock_ra_full")
    ->Unit(benchmark::kMillisecond);

/// Ablation: how the fairness bound (the finite stand-in for the paper's
/// fair-scheduler assumption) scales the schedule space — the knob that
/// trades verification coverage against wall-clock.
void fairnessAblation(benchmark::State &State) {
  MachineConfigPtr Cfg = makeFig3Config();
  std::uint64_t Schedules = 0;
  for (auto _ : State) {
    ExploreOptions Opts;
    Opts.FairnessBound = static_cast<unsigned>(State.range(0));
    Opts.MaxSteps = 512;
    ExploreResult Res = exploreMachine(Cfg, Opts);
    benchmark::DoNotOptimize(Res.Ok);
    Schedules += Res.SchedulesExplored;
  }
  State.counters["schedules"] = benchmark::Counter(
      static_cast<double>(Schedules) /
      static_cast<double>(State.iterations()));
}
BENCHMARK(fairnessAblation)
    ->Name("Explorer/fairness_ablation")
    ->Arg(1)
    ->Arg(2)
    ->Arg(3)
    ->Unit(benchmark::kMillisecond);

/// Workload for the parallel-scaling runs: 4 CPUs each taking the ticket
/// lock 3 times, over the *atomic* L1 layer (blocking acq — no spinning,
/// so the schedule space is finite under any fairness bound; the L0 spin
/// implementation diverges under consecutive-step fairness with 3+ CPUs).
MachineConfigPtr makeTicketSpecConfig(unsigned Cpus, unsigned Rounds) {
  static TicketLockLayers Layers = makeTicketLockLayers();
  static ClightModule Client = cloneModule(makeTicketClient());
  static AsmProgramPtr Prog = compileAndLink("tickspec.lasm", {&Client});
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "tickspec";
  Cfg->Layer = Layers.L1;
  Cfg->Program = Prog;
  for (ThreadId C = 1; C <= Cpus; ++C)
    Cfg->Work.emplace(
        C, std::vector<CpuWorkItem>(Rounds, CpuWorkItem{"t_main", {}}));
  return Cfg;
}

void exploreParallel(benchmark::State &State) {
  MachineConfigPtr Cfg = makeTicketSpecConfig(4, 2);
  std::uint64_t Schedules = 0, States = 0;
  for (auto _ : State) {
    ExploreOptions Opts;
    Opts.FairnessBound = 2;
    Opts.MaxSteps = 4096;
    Opts.Threads = static_cast<unsigned>(State.range(0));
    Opts.OnOutcome = [](const Outcome &) { return std::string(); };
    ExploreResult Res = exploreMachine(Cfg, Opts);
    benchmark::DoNotOptimize(Res.Ok);
    Schedules += Res.SchedulesExplored;
    States += Res.StatesExplored;
  }
  State.counters["schedules/s"] = benchmark::Counter(
      static_cast<double>(Schedules), benchmark::Counter::kIsRate);
  State.counters["states/s"] = benchmark::Counter(
      static_cast<double>(States), benchmark::Counter::kIsRate);
}
BENCHMARK(exploreParallel)
    ->Name("Explorer/parallel_scaling")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void strategySim(benchmark::State &State) {
  // The §2 Def 2.1 check under a scripted contended environment.
  std::uint64_t Obligations = 0;
  for (auto _ : State) {
    auto Impl = makeAtomicCallStrategy(1, "hold", {}, [](const Log &) {
      return std::optional<std::int64_t>(0);
    });
    auto Spec = makeAtomicCallStrategy(1, "acq", {}, [](const Log &) {
      return std::optional<std::int64_t>(0);
    });
    EventMap R("R1", [](const Event &E) -> std::optional<Event> {
      if (E.Kind == KindId("hold"))
        return Event(E.Tid, KindId("acq"));
      return E;
    });
    auto Env = makeNullEnv();
    SimReport Rep = checkStrategySimulation(*Impl, *Spec, R, *Env);
    benchmark::DoNotOptimize(Rep.Holds);
    Obligations += Rep.Obligations;
  }
  State.counters["obligations/s"] = benchmark::Counter(
      static_cast<double>(Obligations), benchmark::Counter::kIsRate);
}
BENCHMARK(strategySim)->Name("Simulation/def21_atomic");

/// Maximal-branching workload for the release/acquire rows: a torn
/// relaxed counter two CPUs bump twice each, so every read has a real
/// reads-from menu over the location's modification order.  The
/// annotated lock rows below show the other end of the spectrum — the
/// acquire joins collapse their menus back toward one.
MachineConfigPtr makeRelaxedCounterConfig(MemoryModel Model) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int bump();
      int t_main() { bump(); return bump(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  static AsmProgramPtr Prog = compileAndLink("rabump.lasm", {&Client});
  auto L = makeInterface("Lrabump");
  L->addShared("bump", makeFetchIncPrim("bump"),
               Footprint::of({"b"}, {"b"})
                   .withOrders(MemOrder::Relaxed, MemOrder::Relaxed)
                   .nonAtomic());
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "rabump";
  Cfg->Layer = L;
  Cfg->Program = Prog;
  Cfg->Model = Model;
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  Cfg->Work.emplace(2, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

/// Release/acquire rows: throughput and reads-from branching factor of
/// the weak backend on the relaxed counter (real stale-read menus) and on
/// the annotated RA ticket/MCS lock machines; the broken-grab twin rides
/// along as the refutation row (ok=false IS its datum).
void emitRaJson(std::FILE *F) {
  struct RaRow {
    std::string Workload;
    double Secs = 0.0;
    ExploreResult Res;
  };
  std::vector<RaRow> Rows;
  auto Run = [&Rows](std::string Workload, MachineConfigPtr Cfg,
                     const ExploreOptions &Opts) {
    RaRow Row;
    Row.Workload = std::move(Workload);
    auto Start = std::chrono::steady_clock::now();
    Row.Res = exploreMachine(std::move(Cfg), Opts);
    Row.Secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - Start)
                   .count();
    Rows.push_back(std::move(Row));
  };
  {
    ExploreOptions Opts;
    Opts.FairnessBound = 1u << 20; // no spinning in this workload
    Opts.MaxSteps = 256;
    Run("relaxed counter, 2 CPUs x 2 bumps, RaMemory",
        makeRelaxedCounterConfig(MemoryModel::Ra), Opts);
  }
  {
    ObjectHarness H = makeTicketLockHarnessRa(2, 1);
    Run("ticket lock L0 RA, 2 CPUs x 1 round", H.implConfig(), H.ImplOpts);
  }
  {
    ObjectHarness H = makeTicketLockHarnessRa(2, 1, /*BrokenGrab=*/true);
    Run("ticket lock L0 RA broken grab (must be refuted)", H.implConfig(),
        H.ImplOpts);
  }
  {
    ObjectHarness H = makeMcsLockHarnessRa(2, 1);
    Run("mcs lock L0 RA, 2 CPUs x 1 round", H.implConfig(), H.ImplOpts);
  }

  std::fprintf(F, "  \"ra\": {\n    \"runs\": [\n");
  for (size_t I = 0; I != Rows.size(); ++I) {
    const RaRow &Row = Rows[I];
    double Branching =
        Row.Res.ReadsFromBranchPoints
            ? static_cast<double>(Row.Res.ReadsFromVariants) /
                  static_cast<double>(Row.Res.ReadsFromBranchPoints)
            : 1.0;
    std::fprintf(
        F,
        "      {\"workload\": \"%s\", \"seconds\": %.4f, \"schedules\": "
        "%llu, \"states\": %llu, \"states_per_sec\": %.0f, \"outcomes\": "
        "%llu, \"rf_branch_points\": %llu, \"rf_variants\": %llu, "
        "\"rf_branching\": %.2f, \"ok\": %s}%s\n",
        Row.Workload.c_str(), Row.Secs,
        static_cast<unsigned long long>(Row.Res.SchedulesExplored),
        static_cast<unsigned long long>(Row.Res.StatesExplored),
        Row.Secs > 0.0
            ? static_cast<double>(Row.Res.StatesExplored) / Row.Secs
            : 0.0,
        static_cast<unsigned long long>(Row.Res.Outcomes.size()),
        static_cast<unsigned long long>(Row.Res.ReadsFromBranchPoints),
        static_cast<unsigned long long>(Row.Res.ReadsFromVariants),
        Branching, Row.Res.Ok ? "true" : "false",
        I + 1 != Rows.size() ? "," : "");
    std::fprintf(stderr,
                 "ra explore: %-45s schedules=%llu states=%llu "
                 "rf_branching=%.2f ok=%s\n",
                 Row.Workload.c_str(),
                 static_cast<unsigned long long>(Row.Res.SchedulesExplored),
                 static_cast<unsigned long long>(Row.Res.StatesExplored),
                 Branching, Row.Res.Ok ? "true" : "false");
  }
  std::fprintf(F, "    ]\n  }\n");
}

/// Cold-vs-warm timing of the certificate store on a full contextual
/// refinement: the cold run explores and persists, the warm run must serve
/// the identical report from disk.  The hit/miss counters come from the
/// obs registry so the row doubles as an end-to-end check that a warm run
/// really is one hit and zero misses.
void emitCertStoreJson(std::FILE *F) {
  namespace fs = std::filesystem;
  fs::path Dir = fs::temp_directory_path() / "ccal_bench_cert_store";
  std::error_code Ec;
  fs::remove_all(Dir, Ec);

  auto RunOnce = [&] {
    auto Start = std::chrono::steady_clock::now();
    ContextualRefinementReport Rep = checkContextualRefinement(
        makeTicketSpecConfig(3, 1), makeTicketSpecConfig(3, 1),
        EventMap::identity(), ExploreOptions(), ExploreOptions());
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    return std::make_pair(Secs, Rep.Holds);
  };

  // The first store write in a process pays a one-time filesystem cost
  // (~70 ms here) that would swamp the sub-millisecond check; pay it
  // untimed against a throwaway directory so the cold row times the store.
  fs::path WarmUp = Dir;
  WarmUp += "_warmup";
  cert::setStoreDir(WarmUp.string());
  RunOnce();
  fs::remove_all(WarmUp, Ec);

  bool WasEnabled = obs::enabled();
  obs::setEnabled(true);
  obs::metricsReset();
  cert::setStoreDir(Dir.string());
  auto [SecsCold, ColdHolds] = RunOnce();
  auto [SecsWarm, WarmHolds] = RunOnce();
  std::uint64_t Hits = obs::counterValue("cert.hits");
  std::uint64_t Misses = obs::counterValue("cert.misses");
  cert::setStoreDir("");
  obs::metricsReset();
  obs::setEnabled(WasEnabled);
  fs::remove_all(Dir, Ec);

  std::fprintf(F,
               "  \"cert_store\": {\"workload\": \"ticket spec layer L1, 3 "
               "CPUs x 1 round, contextual refinement\", \"seconds_cold\": "
               "%.3g, \"seconds_warm\": %.3g, \"speedup\": %.2f, \"hits\": "
               "%llu, \"misses\": %llu, \"holds\": %s},\n",
               SecsCold, SecsWarm,
               SecsWarm > 0.0 ? SecsCold / SecsWarm : 0.0,
               static_cast<unsigned long long>(Hits),
               static_cast<unsigned long long>(Misses),
               ColdHolds && WarmHolds ? "true" : "false");
  std::fprintf(stderr,
               "cert store: cold=%.3gs warm=%.3gs (%.1fx) hits=%llu "
               "misses=%llu\n",
               SecsCold, SecsWarm,
               SecsWarm > 0.0 ? SecsCold / SecsWarm : 0.0,
               static_cast<unsigned long long>(Hits),
               static_cast<unsigned long long>(Misses));
}

/// Threads=1..N scaling sweep on the 4-CPU ticket-lock exploration,
/// written to BENCH_explorer.json before the google-benchmark suite runs.
/// The speedup column is honest: on a machine with a single hardware
/// thread the workers serialize and speedup stays ~1, which is why
/// hardware_threads is part of the record.
void emitScalingJson() {
  MachineConfigPtr Cfg = makeTicketSpecConfig(4, 3);
  unsigned Hw = std::thread::hardware_concurrency();
  std::vector<unsigned> ThreadCounts = {1, 2, 4};
  if (Hw > 4)
    ThreadCounts.push_back(Hw);

  std::FILE *F = std::fopen("BENCH_explorer.json", "w");
  if (!F) {
    std::fprintf(stderr, "cannot open BENCH_explorer.json\n");
    return;
  }
  std::fprintf(F, "{\n");
  std::fprintf(F, "  \"bench\": \"explorer_parallel_scaling\",\n");
  std::fprintf(F,
               "  \"workload\": \"ticket lock spec layer, 4 CPUs x 3 "
               "rounds, FairnessBound=2\",\n");
  std::fprintf(F, "  \"hardware_threads\": %u,\n", Hw);
  // Pre-refactor capture (std::string event kinds, flat std::vector<Event>
  // log, globally locked outcome recording) on the same workload, kept in
  // the artifact so states_per_sec and snapshot_bytes always show the
  // before/after pair.  snapshot_bytes_est: 21 events x ~64 B (string kind
  // + args vector + tid) plus the vector header, all deep-copied per
  // machine snapshot.
  std::fprintf(F,
               "  \"baseline_pre_refactor\": {\"threads\": 1, \"seconds\": "
               "2.044, \"schedules\": 50040, \"states\": 652961, "
               "\"states_per_sec\": 319452, \"snapshot_bytes_est\": 1368},\n");
  std::fprintf(F, "  \"runs\": [\n");
  // Counters in these rows come from the obs registry (metricsReset per
  // run, counterValue after), not from ExploreResult — the registry is the
  // artifact under test.
  bool WasEnabled = obs::enabled();
  obs::setEnabled(true);
  double Baseline = 0.0;
  for (size_t I = 0; I != ThreadCounts.size(); ++I) {
    unsigned T = ThreadCounts[I];
    ExploreOptions Opts;
    Opts.FairnessBound = 2;
    Opts.MaxSteps = 4096;
    Opts.Threads = T;
    Opts.OnOutcome = [](const Outcome &) { return std::string(); };
    obs::metricsReset();
    auto Start = std::chrono::steady_clock::now();
    ExploreResult Res = exploreMachine(Cfg, Opts);
    double Secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();
    if (T == 1)
      Baseline = Secs;
    std::uint64_t Steals = obs::counterValue("explorer.steals");
    std::uint64_t Donations = obs::counterValue("explorer.donations");
    std::uint64_t StealBatches = obs::counterValue("steal.batches");
    // snapshot_bytes: bytes a machine-copy physically clones for a log of
    // this run's deepest length (sealed chunks are shared, only pointers
    // and the tail copy) — the quantity the chunked representation
    // optimizes, measured rather than estimated.
    Log Deepest;
    for (std::uint64_t E = 0; E != Res.MaxLogLen; ++E)
      Deepest.push_back(Event(1, KindId("e")));
    std::fprintf(F,
                 "    {\"threads\": %u, \"seconds\": %.3f, \"schedules\": "
                 "%llu, \"states\": %llu, \"states_per_sec\": %.0f, "
                 "\"snapshot_bytes\": %llu, \"ok\": %s, \"speedup\": %.2f, "
                 "\"steals\": %llu, \"donations\": %llu, "
                 "\"steal_batches\": %llu}%s\n",
                 T, Secs,
                 static_cast<unsigned long long>(Res.SchedulesExplored),
                 static_cast<unsigned long long>(Res.StatesExplored),
                 Secs > 0.0 ? static_cast<double>(Res.StatesExplored) / Secs
                            : 0.0,
                 static_cast<unsigned long long>(Deepest.snapshotCopyBytes()),
                 Res.Ok ? "true" : "false",
                 Secs > 0.0 ? Baseline / Secs : 0.0,
                 static_cast<unsigned long long>(Steals),
                 static_cast<unsigned long long>(Donations),
                 static_cast<unsigned long long>(StealBatches),
                 I + 1 != ThreadCounts.size() ? "," : "");
    std::fprintf(stderr,
                 "explorer scaling: threads=%u %.3fs schedules=%llu "
                 "steals=%llu steal_batches=%llu\n",
                 T, Secs,
                 static_cast<unsigned long long>(Res.SchedulesExplored),
                 static_cast<unsigned long long>(Steals),
                 static_cast<unsigned long long>(StealBatches));
  }
  obs::metricsReset();
  obs::setEnabled(WasEnabled);
  std::fprintf(F, "  ],\n");
  emitCertStoreJson(F);
  emitRaJson(F);
  std::fprintf(F, "}\n");
  std::fclose(F);
}

} // namespace

int main(int argc, char **argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  emitScalingJson();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
