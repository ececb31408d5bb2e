//===- threads/Linking.cpp - Multithreaded linking (Thm 5.1) ------------------===//

#include "threads/Linking.h"

#include "cert/CertKeys.h"
#include "cert/CertStore.h"
#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "objects/LocalQueue.h"
#include "support/Text.h"

using namespace ccal;

namespace {

/// Bump when this checker's semantics or payload layout change: stored
/// certificates from the old format must miss, not lie.  v3 follows the
/// shared refinement payload, which dropped its corpus field.
const char LinkCheckerVersion[] = "link-v3";

/// The scheduler event kinds the two relations rewrite, interned once.
const KindId Cswitch("cswitch"), Yield("yield"), Spawn("spawn");

ClightModule makeLinkingClient(unsigned NumThreads) {
  std::string Spawns;
  for (unsigned T = 1; T <= NumThreads; ++T)
    Spawns += strFormat("      spawn(%u);\n", T);
  std::string Src = strFormat(R"(
    extern void yield();
    extern void spawn(int t);
    extern void thread_exit();
    extern int bump();
    extern void done(int v);

    int t_boot() {
%s      thread_exit();
      return 0;
    }

    int t_worker(int rounds) {
      int acc = 0;
      int i = 0;
      while (i < rounds) {
        acc = acc * 100 + bump();
        yield();
        i = i + 1;
      }
      done(acc);
      thread_exit();
      return 0;
    }
  )",
                              Spawns.c_str());
  ClightModule M = parseModuleOrDie("P_linking_client", Src);
  typeCheckOrDie(M);
  return M;
}

} // namespace

LinkingConfigs ccal::makeLinkingConfigs(const LinkingSetup &Setup) {
  // Thread placement: everything on CPU 0 (the theorem is per CPU).
  std::map<ThreadId, ThreadId> CpuOf;
  for (ThreadId T = 0; T <= Setup.NumThreads; ++T)
    CpuOf.emplace(T, 0);

  ClightModule Client = makeLinkingClient(Setup.NumThreads);
  ClightModule Sched = makeSchedModule();
  ClightModule Queue = makeLocalQueueModule();

  // --- Lbtd[c]: scheduler and ready queue are linked code.
  auto Low = makeInterface("Lbtd");
  FoldPart<SchedState> LowSched = installLowSchedPrims(*Low, CpuOf);
  Low->addShared("bump", makeFetchIncPrim("bump"));
  Low->addShared("done", makeEventPrim("done"));

  auto LowCfg = std::make_shared<ThreadedConfig>();
  LowCfg->Name = "linking.low";
  LowCfg->Layer = Low;
  LowCfg->Program =
      compileAndLink("linking.low.lasm", {&Client, &Sched, &Queue});
  LowCfg->Sched = LowSched;

  // --- Lhtd[c][Tc]: scheduling primitives are atomic.
  auto High = makeInterface("Lhtd");
  FoldPart<SchedState> HighSched =
      installHighSchedPrims(*High, CpuOf, /*PreloadReady=*/false);
  High->addShared("bump", makeFetchIncPrim("bump"));
  High->addShared("done", makeEventPrim("done"));

  auto HighCfg = std::make_shared<ThreadedConfig>();
  HighCfg->Name = "linking.high";
  HighCfg->Layer = High;
  HighCfg->Program = compileAndLink("linking.high.lasm", {&Client});
  HighCfg->Sched = HighSched;

  // Same workloads on both.
  for (auto *Cfg : {LowCfg.get(), HighCfg.get()}) {
    Cfg->Threads.push_back({0, 0, {{"t_boot", {}}}});
    for (ThreadId T = 1; T <= Setup.NumThreads; ++T)
      Cfg->Threads.push_back(
          {T, 0, {{"t_worker", {static_cast<std::int64_t>(Setup.Rounds)}}}});
  }
  return {LowCfg, HighCfg};
}

LinkingReport ccal::checkMultithreadedLinking(const LinkingSetup &Setup) {
  const LinkingConfigs Cfgs = makeLinkingConfigs(Setup);
  const ThreadedConfigPtr &LowCfg = Cfgs.Low, &HighCfg = Cfgs.High;

  // Relations: concrete context switches become atomic yields; the
  // machine-internal events are erased on both sides.
  EventMap RImpl("Rbtd", [](const Event &E) -> std::optional<Event> {
    if (E.Kind == Cswitch)
      return Event(E.Tid, Yield);
    if (E.Kind == ThreadExitEventKind || E.Kind == ReschedEventKind)
      return std::nullopt;
    return E;
  });
  EventMap RSpec("Rhtd", [](const Event &E) -> std::optional<Event> {
    if (E.Kind == Spawn || E.Kind == ThreadExitEventKind ||
        E.Kind == ReschedEventKind)
      return std::nullopt;
    return E;
  });

  ThreadedExploreOptions Opts;
  Opts.MaxSteps = 4096;

  auto RunCheck = [&] {
    LinkingReport Rep;
    Rep.Refinement = checkThreadedRefinement(LowCfg, HighCfg, RImpl, RSpec,
                                             Opts, Opts);
    Rep.Cert = makeMachineCertificate(
        "MultithreadLink", "Lbtd[0]", "M_sched (+) M_local_queue",
        "Lhtd[0][Tc]", RImpl.name(), Rep.Refinement);
    return Rep;
  };

  cert::CertStore *Store = cert::store();
  if (!Store)
    return RunCheck();

  // Load-or-recheck front-end.  Both configs are fully built above, so
  // the key sees the compiled programs, layer interfaces, workloads, and
  // relations; the opaque scheduler parts are represented by the config
  // names they were constructed alongside.  Editing any of the
  // linked modules (client, scheduler, ready queue) changes the compiled
  // program hash and re-explores; an unchanged setup loads.
  cert::CertKey Key;
  Key.Checker = "link";
  Key.Version = LinkCheckerVersion;
  Key.Desc = strFormat("Thm 5.1 linking: %u threads x %u rounds",
                       Setup.NumThreads, Setup.Rounds);
  Hasher H;
  H.u64(Setup.NumThreads).u64(Setup.Rounds);
  cert::keyAddThreadedConfig(H, *LowCfg);
  cert::keyAddThreadedConfig(H, *HighCfg);
  H.str(RImpl.name()).str(RSpec.name());
  cert::keyAddExploreOptions(H, Opts);
  cert::keyAddExploreOptions(H, Opts);
  Key.Hash = H.value();

  LinkingReport Out;
  Store->getOrCheck(
      Key,
      [&](const cert::CertStore::Entry &E) {
        if (!E.Cert || !refinementFromPayload(E.Payload, Out.Refinement))
          return false;
        Out.Cert = E.Cert;
        return true;
      },
      [&] {
        Out = RunCheck();
        cert::CertStore::Entry Fresh;
        Fresh.Cert = Out.Cert;
        Fresh.Payload = refinementToPayload(Out.Refinement);
        return Fresh;
      });
  return Out;
}
