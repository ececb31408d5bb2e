//===- machine/MultiCore.cpp - The multicore machine model ------------------===//

#include "machine/MultiCore.h"

#include "support/Check.h"
#include "support/Text.h"

using namespace ccal;

MultiCoreMachine::MultiCoreMachine(MachineConfigPtr CfgIn)
    : Cfg(std::move(CfgIn)) {
  CCAL_CHECK(Cfg && Cfg->Layer && Cfg->Program && Cfg->Program->Linked,
             "machine config needs a layer and a linked program");
  Fold = Cfg->Layer->fold().initial();
  std::vector<std::int64_t> Image = Cfg->Program->initialGlobals();
  for (const auto &[Id, Items] : Cfg->Work) {
    (void)Items;
    auto [It, Inserted] = Cpus.emplace(Id, Cpu(Cfg->Program, Image));
    CCAL_CHECK(Inserted, "duplicate CPU id");
    advance(It->second, Id);
  }
}

void MultiCoreMachine::fault(ThreadId Id, const std::string &Msg) {
  if (Err.empty())
    Err = strFormat("CPU %u: %s", Id, Msg.c_str());
  auto It = Cpus.find(Id);
  if (It != Cpus.end())
    It->second.Phase = CpuPhase::Faulted;
}

bool MultiCoreMachine::advance(Cpu &C, ThreadId Id) {
  const std::vector<CpuWorkItem> &Items = Cfg->Work.at(Id);
  std::uint64_t PrivateCalls = 0;
  while (true) {
    if (++PrivateCalls > Cfg->SliceBudget) {
      fault(Id, "local slice diverged (private-primitive loop?)");
      return false;
    }
    if (!C.Active) {
      if (C.NextWork >= Items.size()) {
        C.Phase = CpuPhase::Idle;
        return true;
      }
      const CpuWorkItem &Item = Items[C.NextWork];
      C.Machine.start(Item.Fn, Item.Args);
      C.Active = true;
    }
    Vm::Status St = C.Machine.run(C.Globals, Cfg->SliceBudget);
    if (St == Vm::Status::Done) {
      C.Returns.push_back(C.Machine.result());
      C.Active = false;
      ++C.NextWork;
      continue;
    }
    if (St == Vm::Status::Error) {
      fault(Id, C.Machine.error());
      return false;
    }
    CCAL_CHECK(St == Vm::Status::AtPrim, "unexpected VM status");
    const Primitive *P = Cfg->Layer->lookup(C.Machine.primKind());
    if (!P) {
      fault(Id, "call to primitive '" + C.Machine.primName() +
                    "' not provided by layer " + Cfg->Layer->name());
      return false;
    }
    if (P->Shared) {
      C.Phase = CpuPhase::AtShared;
      C.Parked = P;
      return true;
    }
    // Private primitive: silent, executed immediately.
    PrimCall Call;
    Call.Tid = Id;
    Call.Args = C.Machine.primArgs();
    Call.L = &GlobalLog;
    Call.Fold = &Fold;
    Call.LocalMem = &C.Globals;
    std::optional<PrimResult> Res = P->Sem(Call);
    if (!Res) {
      fault(Id, "private primitive '" + P->Name + "' got stuck");
      return false;
    }
    CCAL_CHECK(Res->Events.empty(),
               "private primitives must not emit events");
    for (auto [Addr, V] : Res->LocalWrites) {
      CCAL_CHECK(Addr >= 0 &&
                     static_cast<size_t>(Addr) < C.Globals.size(),
                 "primitive local write out of range");
      C.Globals[static_cast<size_t>(Addr)] = V;
    }
    C.Machine.resumePrim(Res->Ret);
  }
}

bool MultiCoreMachine::allIdle() const {
  for (const auto &[Id, C] : Cpus)
    if (C.Phase != CpuPhase::Idle)
      return false;
  return true;
}

std::vector<ThreadId> MultiCoreMachine::schedulable() const {
  std::vector<ThreadId> Out;
  Out.reserve(Cpus.size());
  for (const auto &[Id, C] : Cpus) {
    if (C.Phase != CpuPhase::AtShared)
      continue;
    // A CPU whose pending primitive is currently Blocked (an atomic
    // blocking spec such as acq on a held lock) is not schedulable until
    // the log grows; primitives are deterministic in the shared state, so
    // this dry run is exact.  Only primitives built as blocking ones can
    // block, so only those are dry-run.
    const Primitive *P = C.Parked;
    if (P->MayBlock) {
      PrimCall Call;
      Call.Tid = Id;
      Call.Args = C.Machine.primArgs();
      Call.L = &GlobalLog;
      Call.Fold = &Fold;
      Call.LocalMem = &C.Globals;
      std::optional<PrimResult> Res = P->Sem(Call);
      if (Res && Res->Blocked)
        continue;
    }
    Out.push_back(Id);
  }
  return Out;
}

const std::string &MultiCoreMachine::pendingPrim(ThreadId C) const {
  return pendingPrimKind(C).str();
}

KindId MultiCoreMachine::pendingPrimKind(ThreadId C) const {
  auto It = Cpus.find(C);
  if (It == Cpus.end() || It->second.Phase != CpuPhase::AtShared)
    return KindId();
  return It->second.Machine.primKind();
}

Footprint MultiCoreMachine::stepFootprint(ThreadId C) const {
  return Cfg->Layer->footprintOf(pendingPrimKind(C));
}

const MemoryModel &MultiCoreMachine::model() const {
  return Cfg->Model ? *Cfg->Model : *scMemory();
}

unsigned MultiCoreMachine::stepVariants(ThreadId C) const {
  if (!weakModel())
    return 1;
  auto It = Cpus.find(C);
  if (It == Cpus.end() || It->second.Phase != CpuPhase::AtShared)
    return 1;
  return model().stepVariants(Ra, C, stepFootprint(C),
                              Cfg->MaxReadsFromPerStep);
}

bool MultiCoreMachine::step(ThreadId Id) { return step(Id, 0); }

bool MultiCoreMachine::step(ThreadId Id, unsigned Variant) {
  if (!ok())
    return false;
  auto It = Cpus.find(Id);
  CCAL_CHECK(It != Cpus.end(), "step: unknown CPU");
  Cpu &C = It->second;
  CCAL_CHECK(C.Phase == CpuPhase::AtShared,
             "step: CPU is not parked at a shared primitive");

  const Primitive *P = C.Parked;
  CCAL_CHECK(P && P->Shared, "parked primitive must be shared");

  const bool Weak = weakModel();
  const Footprint Foot = Weak ? stepFootprint(Id) : Footprint();
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

  PrimCall Call;
  Call.Tid = Id;
  Call.Args = C.Machine.primArgs();
  Call.L = Visible ? &*Visible : &GlobalLog;
  Call.Fold = VisibleFold ? &*VisibleFold : &Fold;
  Call.LocalMem = &C.Globals;
  std::optional<PrimResult> Res = P->Sem(Call);
  if (!Res) {
    fault(Id, "shared primitive '" + P->Name +
                  "' got stuck (data race or protocol violation); log: " +
                  logToString(GlobalLog));
    return false;
  }
  if (Res->Blocked && !P->MayBlock) {
    fault(Id, "shared primitive '" + P->Name +
                  "' blocked but is not marked MayBlock, so the machine "
                  "never dry-runs it");
    return false;
  }
  // Blocked is checked against the FULL log's fold by schedulable(); a
  // weak-ordered primitive must never block (its visible log may differ
  // from the full log, which would make enabledness unsound), and the
  // blocking primitives (atomic lock specs) keep their SeqCst defaults.
  CCAL_CHECK(!Res->Blocked, "step: blocked CPUs are not schedulable");
  const std::size_t FirstNew = GlobalLog.size();
  appendFolded(GlobalLog, Fold, Res->Events);
  if (Weak)
    model().commit(Ra, GlobalLog, FirstNew, Id, Foot, Variant,
                   [this](KindId K) { return Cfg->Layer->footprintOf(K); });
  for (auto [Addr, V] : Res->LocalWrites) {
    CCAL_CHECK(Addr >= 0 && static_cast<size_t>(Addr) < C.Globals.size(),
               "primitive local write out of range");
    C.Globals[static_cast<size_t>(Addr)] = V;
  }
  C.Machine.resumePrim(Res->Ret);
  ++StepsTaken;
  return advance(C, Id);
}

std::map<ThreadId, std::vector<std::int64_t>>
MultiCoreMachine::returns() const {
  std::map<ThreadId, std::vector<std::int64_t>> Out;
  for (const auto &[Id, C] : Cpus)
    Out.emplace(Id, C.Returns);
  return Out;
}

const std::vector<std::int64_t> &
MultiCoreMachine::cpuMemory(ThreadId C) const {
  auto It = Cpus.find(C);
  CCAL_CHECK(It != Cpus.end(), "unknown CPU");
  return It->second.Globals;
}
