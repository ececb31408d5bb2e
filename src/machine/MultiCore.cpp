//===- machine/MultiCore.cpp - The multicore machine model ------------------===//

#include "machine/MultiCore.h"

#include "support/Check.h"
#include "support/Text.h"

using namespace ccal;

MultiCoreMachine::MultiCoreMachine(const MachineConfigPtr &CfgIn)
    : Cfg(CfgIn.get()) {
  CCAL_CHECK(Cfg && Cfg->Layer && Cfg->Program && Cfg->Program->Linked,
             "machine config needs a layer and a linked program");
  Fold = Cfg->Layer->fold().initial();
  std::vector<std::int64_t> Image = Cfg->Program->initialGlobals();
  for (const auto &[Id, Items] : Cfg->Work) {
    auto [It, Inserted] =
        Cpus.emplace(Id, Cpu{Core(Cfg->Program, Id, Items), Image});
    CCAL_CHECK(Inserted, "duplicate CPU id");
    advance(It->second, Id);
  }
}

void MultiCoreMachine::fault(ThreadId Id, const std::string &Msg) {
  if (Err.empty())
    Err = strFormat("CPU %u: %s", Id, Msg.c_str());
  auto It = Cpus.find(Id);
  if (It != Cpus.end())
    It->second.Phase = Core::Stop::Faulted;
}

bool MultiCoreMachine::advance(Cpu &C, ThreadId Id) {
  std::string Why;
  C.Phase = C.Exec.runLocal(*Cfg->Layer, Cfg->SliceBudget, GlobalLog, Fold,
                            C.Globals, Why);
  if (C.Phase != Core::Stop::Faulted)
    return true;
  fault(Id, Why);
  return false;
}

bool MultiCoreMachine::allIdle() const {
  for (const auto &[Id, C] : Cpus)
    if (C.Phase != Core::Stop::Idle)
      return false;
  return true;
}

std::vector<ThreadId> MultiCoreMachine::schedulable() const {
  std::vector<ThreadId> Out;
  Out.reserve(Cpus.size());
  // A CPU whose pending primitive is currently Blocked (an atomic blocking
  // spec such as acq on a held lock) is not schedulable until the log
  // grows.
  for (const auto &[Id, C] : Cpus)
    if (C.Phase == Core::Stop::AtShared &&
        !C.Exec.blocked(GlobalLog, Fold, C.Globals))
      Out.push_back(Id);
  return Out;
}

const std::string &MultiCoreMachine::pendingPrim(ThreadId C) const {
  auto It = Cpus.find(C);
  if (It == Cpus.end() || It->second.Phase != Core::Stop::AtShared)
    return KindId().str();
  return It->second.Exec.pending()->Name;
}

const MemoryModel &MultiCoreMachine::model() const {
  return Cfg->Model ? *Cfg->Model : *scMemory();
}

unsigned MultiCoreMachine::stepVariants(ThreadId C) const {
  if (!weakModel())
    return 1;
  auto It = Cpus.find(C);
  if (It == Cpus.end() || It->second.Phase != Core::Stop::AtShared)
    return 1;
  return model().stepVariants(Ra, C, It->second.Exec.pending()->Foot,
                              Cfg->MaxReadsFromPerStep);
}

bool MultiCoreMachine::step(ThreadId Id) { return step(Id, 0); }

bool MultiCoreMachine::step(ThreadId Id, unsigned Variant) {
  if (!ok())
    return false;
  auto It = Cpus.find(Id);
  CCAL_CHECK(It != Cpus.end(), "step: unknown CPU");
  Cpu &C = It->second;
  CCAL_CHECK(C.Phase == Core::Stop::AtShared,
             "step: CPU is not parked at a shared primitive");

  const bool Weak = weakModel();
  const Footprint Foot = Weak ? C.Exec.pending()->Foot : Footprint();
  std::optional<Log> Visible;
  std::optional<FoldValue> VisibleFold;
  if (Weak) {
    // Fail closed when the reads-from enumeration would be truncated:
    // a capped menu silently hides behaviors the model allows.
    const unsigned Count =
        model().stepVariants(Ra, Id, Foot, Cfg->MaxReadsFromPerStep);
    if (Count > Cfg->MaxReadsFromPerStep) {
      fault(Id, "step offers more reads-from choices than "
                "MaxReadsFromPerStep admits; raise the budget in the "
                "MachineConfig");
      return false;
    }
    CCAL_CHECK(Variant < Count, "step: reads-from variant out of range");
    Visible = model().visibleLog(Ra, GlobalLog, Id, Foot, Variant);
    // A stale read sees the shared state of its visible log, folded from
    // scratch; the kept fold covers the full log only.
    if (Visible)
      VisibleFold = Cfg->Layer->fold().replay(*Visible);
  } else {
    CCAL_CHECK(Variant == 0, "step: sc model has a single variant");
  }

  const std::size_t FirstNew = GlobalLog.size();
  std::string Why;
  if (!C.Exec.call(Visible ? *Visible : GlobalLog,
                   VisibleFold ? *VisibleFold : Fold, GlobalLog, Fold,
                   C.Globals, Why)) {
    fault(Id, Why);
    return false;
  }
  if (Weak)
    model().commit(Ra, GlobalLog, FirstNew, Id, Foot, Variant,
                   [this](KindId K) { return Cfg->Layer->footprintOf(K); });
  return advance(C, Id);
}

std::map<ThreadId, std::vector<std::int64_t>>
MultiCoreMachine::returns() const {
  std::map<ThreadId, std::vector<std::int64_t>> Out;
  for (const auto &[Id, C] : Cpus)
    Out.emplace(Id, C.Exec.returns());
  return Out;
}
