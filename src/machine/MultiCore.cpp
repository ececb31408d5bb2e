//===- machine/MultiCore.cpp - The multicore machine model ------------------===//

#include "machine/MultiCore.h"

#include "support/Check.h"
#include "support/Text.h"

#include <algorithm>

using namespace ccal;

MultiCoreMachine::MultiCoreMachine(const MachineConfigPtr &CfgIn)
    : Cfg(CfgIn.get()) {
  CCAL_CHECK(Cfg && Cfg->Layer && Cfg->Program && Cfg->Program->Linked,
             "machine config needs a layer and a linked program");
  Fold = Cfg->Layer->fold().initial();
  if (Cfg->Model == MemoryModel::Ra)
    Ra.emplace();
  std::vector<std::int64_t> Image = Cfg->Program->initialGlobals();
  // Work is a map, so the CPUs arrive in id order.
  Cpus.reserve(Cfg->Work.size());
  for (const auto &[Id, Items] : Cfg->Work) {
    Cpus.push_back(Cpu{Id, Core(Cfg->Program, Id, Items), Image});
    advance(Cpus.back());
  }
}

const MultiCoreMachine::Cpu *MultiCoreMachine::cpu(ThreadId Id) const {
  auto It = std::lower_bound(
      Cpus.begin(), Cpus.end(), Id,
      [](const Cpu &C, ThreadId Want) { return C.Id < Want; });
  return It != Cpus.end() && It->Id == Id ? &*It : nullptr;
}

void MultiCoreMachine::fault(Cpu &C, const std::string &Msg) {
  if (Err.empty())
    Err = strFormat("CPU %u: %s", C.Id, Msg.c_str());
  C.Phase = Core::Stop::Faulted;
}

bool MultiCoreMachine::advance(Cpu &C) {
  std::string Why;
  C.Phase = C.Exec.runLocal(*Cfg->Layer, Cfg->SliceBudget, GlobalLog, Fold,
                            C.Globals, Why);
  if (C.Phase != Core::Stop::Faulted)
    return true;
  fault(C, Why);
  return false;
}

bool MultiCoreMachine::allIdle() const {
  for (const Cpu &C : Cpus)
    if (C.Phase != Core::Stop::Idle)
      return false;
  return true;
}

void MultiCoreMachine::schedulable(std::vector<ThreadId> &Out) const {
  Out.clear();
  // A CPU whose pending primitive is currently Blocked (an atomic blocking
  // spec such as acq on a held lock) is not schedulable until the log
  // grows.
  for (const Cpu &C : Cpus)
    if (C.Phase == Core::Stop::AtShared &&
        !C.Exec.blocked(Fold, C.Globals))
      Out.push_back(C.Id);
}

const std::string &MultiCoreMachine::pendingPrim(ThreadId Id) const {
  const Cpu *C = cpu(Id);
  if (!C || C->Phase != Core::Stop::AtShared)
    return KindId().str();
  return C->Exec.pending()->Name;
}

unsigned MultiCoreMachine::stepVariants(ThreadId Id) const {
  if (!Ra)
    return 1;
  const Cpu *C = cpu(Id);
  if (!C || C->Phase != Core::Stop::AtShared)
    return 1;
  return Ra->stepVariants(Id, C->Exec.pending()->Foot,
                          Cfg->MaxReadsFromPerStep);
}

bool MultiCoreMachine::step(ThreadId Id) { return step(Id, 0); }

bool MultiCoreMachine::step(ThreadId Id, unsigned Variant) {
  if (!ok())
    return false;
  Cpu *Found = cpu(Id);
  CCAL_CHECK(Found, "step: unknown CPU");
  Cpu &C = *Found;
  CCAL_CHECK(C.Phase == Core::Stop::AtShared,
             "step: CPU is not parked at a shared primitive");

  // The layer owns the footprint, so the reference outlives the call.
  const Footprint &Foot = C.Exec.pending()->Foot;
  std::optional<FoldValue> Visible;
  if (Ra) {
    // Fail closed when the reads-from enumeration would be truncated:
    // a capped menu silently hides behaviors the model allows.
    const unsigned Count =
        Ra->stepVariants(Id, Foot, Cfg->MaxReadsFromPerStep);
    if (Count > Cfg->MaxReadsFromPerStep) {
      fault(C, "step offers more reads-from choices than "
                "MaxReadsFromPerStep admits; raise the budget in the "
                "MachineConfig");
      return false;
    }
    CCAL_CHECK(Variant < Count, "step: reads-from variant out of range");
    // A stale read sees the shared state of its visible log, folded from
    // scratch; the kept fold covers the full log only.
    if (std::optional<Log> Seen =
            Ra->visibleLog(GlobalLog, Id, Foot, Variant))
      Visible = Cfg->Layer->fold().replay(*Seen);
  } else {
    CCAL_CHECK(Variant == 0, "step: sc model has a single variant");
  }

  const std::size_t FirstNew = GlobalLog.size();
  std::string Why;
  if (!C.Exec.call(Visible ? *Visible : Fold, GlobalLog, Fold, C.Globals,
                   Why)) {
    fault(C, Why);
    return false;
  }
  if (Ra)
    Ra->commit(GlobalLog, FirstNew, Id, Foot, Variant, *Cfg->Layer);
  return advance(C);
}

void MultiCoreMachine::returns(ReturnMap &Out) const {
  writeReturns(Out, [this](auto Put) {
    for (const Cpu &C : Cpus)
      Put(C.Id, C.Exec.returns());
  });
}
