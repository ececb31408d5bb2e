//===- serve/Jobs.cpp - certd verification job catalog --------------------===//

#include "serve/Jobs.h"

#include "cert/CertStore.h"
#include "objects/Harness.h"
#include "objects/McsLock.h"
#include "objects/TicketLock.h"

#include <chrono>
#include <map>
#include <mutex>

using namespace ccal;
using namespace ccal::serve;

namespace {

struct Registry {
  std::mutex Mu;
  std::map<std::string, std::pair<std::string, JobFn>> Jobs;
};

/// Wraps a harness factory: injects the job context into both machines'
/// exploration options, runs, and translates the refinement report.
JobFn harnessJob(std::function<ObjectHarness()> Make) {
  return [Make = std::move(Make)](const JobContext &Ctx) {
    ObjectHarness H = Make();
    H.ImplOpts.Cancel = Ctx.Cancel;
    H.ImplOpts.CancelReason = Ctx.CancelReason;
    H.SpecOpts.Cancel = Ctx.Cancel;
    H.SpecOpts.CancelReason = Ctx.CancelReason;
    if (Ctx.Threads > 1) {
      H.ImplOpts.Threads = Ctx.Threads;
      H.SpecOpts.Threads = Ctx.Threads;
    }
    HarnessOutcome Out = runObjectHarness(H);

    JobResult R;
    R.Holds = Out.Report.Holds;
    R.Complete = Out.Report.SpecComplete && Out.Report.ImplComplete;
    R.Diagnostic = Out.Report.Holds ? "" : Out.Report.Counterexample;
    R.Schedules = Out.Report.SchedulesExplored;
    R.Obligations = Out.Report.ObligationsChecked;
    return R;
  };
}

Registry &registry() {
  static Registry *R = [] {
    auto *Reg = new Registry();
    auto Add = [&Reg](std::string Name, std::string Desc,
                      std::function<ObjectHarness()> Make) {
      Reg->Jobs.emplace(std::move(Name),
                        std::make_pair(std::move(Desc),
                                       harnessJob(std::move(Make))));
    };
    // The built-in catalog: the two certified locks at the configurations
    // the suite exercises.  Both refine the same atomic L1, so a stack
    // mixing them shares overlapping obligations — that overlap is what
    // the daemon's shared store monetizes.
    Add("ticket.2cpu", "ticket lock, 2 CPUs x 1 round (~3ms cold)",
        [] { return makeTicketLockHarness(2, 1); });
    Add("ticket.1cpu.2r", "ticket lock, 1 CPU x 2 rounds (fast)",
        [] { return makeTicketLockHarness(1, 2); });
    Add("ticket.2cpu.2r",
        "ticket lock, 2 CPUs x 2 rounds (heavy: ~3.5M schedules, ~10 s "
        "cold on one worker — submit with a timeout unless you mean it)",
        [] { return makeTicketLockHarness(2, 2); });
    // 3 CPUs of spinning exceed the harness's 512-step budget, so after
    // about a second of exploration on one worker (87,485 schedules) this
    // job truthfully fails with a step-bound violation, Complete=false —
    // kept in the catalog as the natural fail-closed subject: a budget
    // stop never rounds up to Holds.
    Add("ticket.3cpu",
        "ticket lock, 3 CPUs x 1 round (exceeds the step budget: "
        "fails closed, never Holds)",
        [] { return makeTicketLockHarness(3, 1); });
    Add("mcs.2cpu", "MCS lock, 2 CPUs x 1 round (~8ms cold)",
        [] { return makeMcsLockHarness(2, 1); });
    // Release/acquire re-verification of the same locks: the annotated
    // implementation machine runs under MemoryModel::Ra (stale reads
    // enumerated), the spec machine stays SC.  Their certificates carry
    // the memory model in the key, so they share the store with the SC
    // jobs without ever aliasing them.
    Add("ticket.2cpu.ra",
        "ticket lock under release/acquire memory, 2 CPUs x 1 round",
        [] { return makeTicketLockHarnessRa(2, 1); });
    Add("mcs.2cpu.ra",
        "MCS lock under release/acquire memory, 2 CPUs x 1 round",
        [] { return makeMcsLockHarnessRa(2, 1); });
    return Reg;
  }();
  return *R;
}

} // namespace

std::vector<JobInfo> serve::listJobs() {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  std::vector<JobInfo> Out;
  for (const auto &[Name, Entry] : R.Jobs)
    Out.push_back({Name, Entry.first});
  return Out;
}

void serve::registerJob(const std::string &Name, const std::string &Desc,
                        JobFn Fn) {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  R.Jobs[Name] = {Desc, std::move(Fn)};
}

JobResult serve::runJob(const std::string &Name, const JobContext &Ctx) {
  JobFn Fn;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> L(R.Mu);
    auto It = R.Jobs.find(Name);
    if (It != R.Jobs.end())
      Fn = It->second.second; // copy out: don't run under the registry lock
  }
  if (!Fn) {
    JobResult R;
    R.Job = Name;
    R.Known = false;
    R.Diagnostic = "unknown job: " + Name;
    return R;
  }

  // Cert traffic attribution: this thread's store tally around the run.
  // Exact under concurrent jobs, because every store call a job makes runs
  // on the thread that runs the job (Explorer workers never call the
  // store), so a neighbour's traffic lands in its own thread's tally.
  const cert::Traffic Before = cert::threadTraffic();
  auto T0 = std::chrono::steady_clock::now();

  JobResult R = Fn(Ctx);

  auto T1 = std::chrono::steady_clock::now();
  R.Job = Name;
  R.WallMs =
      std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
          T1 - T0)
          .count();
  const cert::Traffic After = cert::threadTraffic();
  R.CertHits = After.Hits - Before.Hits;
  R.CertMisses = After.Misses - Before.Misses;
  R.CertStores = After.Stores - Before.Stores;
  return R;
}
