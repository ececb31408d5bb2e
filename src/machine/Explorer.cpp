//===- machine/Explorer.cpp - Schedule enumeration ---------------------------===//

#include "machine/Explorer.h"

#include "support/Text.h"

#include <algorithm>

using namespace ccal;

void ccal::detail::publishExploreMetrics(const ExploreResult &Res) {
  obs::counterAdd("explorer.runs", 1);
  obs::counterAdd("explorer.schedules_explored", Res.SchedulesExplored);
  obs::counterAdd("explorer.states_explored", Res.StatesExplored);
  obs::counterAdd("explorer.invariant_checks", Res.InvariantChecks);
  obs::counterAdd("explorer.steals", Res.Steals);
  obs::counterAdd("explorer.donations", Res.Donations);
  obs::counterAdd("explorer.readsfrom_branch_points",
                  Res.ReadsFromBranchPoints);
  obs::counterAdd("explorer.readsfrom_variants", Res.ReadsFromVariants);
  obs::counterAdd("steal.batches", Res.StealBatches);
  if (!Res.Complete) {
    obs::counterAdd("explorer.truncated_runs", 1);
    obs::traceInstant("explorer.truncation: " + Res.Truncation, "explorer");
  }
  if (!Res.Ok)
    obs::counterAdd("explorer.violations", 1);
  // Per-worker balance as gauges (last run wins — the sweep benches read
  // them between runs).
  obs::gaugeSet("explorer.workers",
                static_cast<std::int64_t>(Res.WorkerStates.size()));
  for (size_t I = 0; I != Res.WorkerStates.size(); ++I) {
    std::string W = "explorer.worker." + std::to_string(I);
    obs::gaugeSet(W + ".states",
                  static_cast<std::int64_t>(Res.WorkerStates[I]));
    obs::gaugeSet(W + ".max_stack",
                  static_cast<std::int64_t>(Res.WorkerMaxStack[I]));
  }
}

ExploreResult ccal::exploreMachine(MachineConfigPtr Cfg,
                                   const ExploreOptions &Opts) {
  MultiCoreMachine Root(Cfg);
  return exploreGeneric(Root, Opts);
}

Outcome ccal::runSchedule(
    MachineConfigPtr Cfg,
    const std::function<ThreadId(const std::vector<ThreadId> &, const Log &)>
        &Pick,
    std::string *Error) {
  MultiCoreMachine M(Cfg);
  std::string SchedErr;
  while (M.ok()) {
    std::vector<ThreadId> Ready = M.schedulable();
    if (Ready.empty())
      break;
    ThreadId C = Pick(Ready, M.log());
    // A pick outside the schedulable set is a bug in the schedule
    // callback, not in the machine; report it as such instead of letting
    // it surface as a confusing machine-level error.
    if (std::find(Ready.begin(), Ready.end(), C) == Ready.end()) {
      SchedErr = strFormat("schedule callback picked CPU %u which is not "
                           "schedulable (schedulable: %s)",
                           C, intListToString({Ready.begin(), Ready.end()})
                                  .c_str());
      break;
    }
    if (!M.step(C))
      break;
  }
  if (Error)
    *Error = !SchedErr.empty() ? SchedErr : M.error();
  Outcome O;
  O.FinalLog = M.log();
  O.Returns = M.returns();
  return O;
}
