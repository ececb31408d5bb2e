//===- machine/HardwareMachine.cpp - Instruction-level Mx86 -------------------===//

#include "machine/HardwareMachine.h"

#include "support/Check.h"
#include "support/Text.h"

using namespace ccal;

HardwareMachine::HardwareMachine(MachineConfigPtr CfgIn)
    : Cfg(std::move(CfgIn)) {
  CCAL_CHECK(Cfg && Cfg->Layer && Cfg->Program && Cfg->Program->Linked,
             "machine config needs a layer and a linked program");
  CCAL_CHECK(!Cfg->Model || !Cfg->Model->weak(),
             "the hardware machine is SC-only; run weak-memory "
             "verification on the query-point MultiCoreMachine");
  Fold = Cfg->Layer->fold().initial();
  std::vector<std::int64_t> Image = Cfg->Program->initialGlobals();
  for (const auto &[Id, Items] : Cfg->Work) {
    auto [It, Inserted] = Cpus.emplace(Id, Cpu(Cfg->Program, Image));
    CCAL_CHECK(Inserted, "duplicate CPU id");
    It->second.Done = Items.empty();
  }
}

void HardwareMachine::fault(ThreadId Id, const std::string &Msg) {
  if (Err.empty())
    Err = strFormat("CPU %u: %s", Id, Msg.c_str());
}

bool HardwareMachine::allIdle() const {
  for (const auto &[Id, C] : Cpus)
    if (!C.Done)
      return false;
  return true;
}

std::vector<ThreadId> HardwareMachine::schedulable() const {
  std::vector<ThreadId> Out;
  for (const auto &[Id, C] : Cpus) {
    if (C.Done)
      continue;
    if (C.AtPrim) {
      const Primitive *P = Cfg->Layer->lookup(C.Machine.primKind());
      if (P && P->Shared && P->MayBlock) {
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
    }
    Out.push_back(Id);
  }
  return Out;
}

bool HardwareMachine::step(ThreadId Id) {
  if (!ok())
    return false;
  auto It = Cpus.find(Id);
  CCAL_CHECK(It != Cpus.end(), "step: unknown CPU");
  Cpu &C = It->second;
  CCAL_CHECK(!C.Done, "step: CPU has no work left");

  const std::vector<CpuWorkItem> &Items = Cfg->Work.at(Id);
  if (!C.Active) {
    const CpuWorkItem &Item = Items[C.NextWork];
    C.Machine.start(Item.Fn, Item.Args);
    C.Active = true;
  }

  if (C.AtPrim) {
    const Primitive *P = Cfg->Layer->lookup(C.Machine.primKind());
    if (!P) {
      fault(Id, "call to primitive '" + C.Machine.primName() +
                    "' not provided by layer " + Cfg->Layer->name());
      return false;
    }
    PrimCall Call;
    Call.Tid = Id;
    Call.Args = C.Machine.primArgs();
    Call.L = &GlobalLog;
    Call.Fold = &Fold;
    Call.LocalMem = &C.Globals;
    std::optional<PrimResult> Res = P->Sem(Call);
    if (!Res) {
      fault(Id, "primitive '" + P->Name + "' got stuck");
      return false;
    }
    if (Res->Blocked && !(P->Shared && P->MayBlock)) {
      fault(Id, "primitive '" + P->Name +
                    "' blocked but is not a shared primitive marked "
                    "MayBlock, so the machine never dry-runs it");
      return false;
    }
    CCAL_CHECK(!Res->Blocked, "step: blocked CPUs are not schedulable");
    CCAL_CHECK(P->Shared || Res->Events.empty(),
               "private primitives must not emit events");
    appendFolded(GlobalLog, Fold, Res->Events);
    for (auto [Addr, V] : Res->LocalWrites) {
      CCAL_CHECK(Addr >= 0 && static_cast<size_t>(Addr) < C.Globals.size(),
                 "primitive local write out of range");
      C.Globals[static_cast<size_t>(Addr)] = V;
    }
    C.Machine.resumePrim(Res->Ret);
    C.AtPrim = false;
    return true;
  }

  // One hardware cycle: a single instruction.
  bool Exhausted = false;
  Vm::Status St = C.Machine.runBounded(C.Globals, 1, Exhausted);
  if (Exhausted)
    return true; // instruction executed; still running
  if (St == Vm::Status::Error) {
    fault(Id, C.Machine.error());
    return false;
  }
  if (St == Vm::Status::AtPrim) {
    C.AtPrim = true; // the primitive itself runs on this CPU's next cycle
    return true;
  }
  CCAL_CHECK(St == Vm::Status::Done, "unexpected VM status");
  C.Returns.push_back(C.Machine.result());
  C.Active = false;
  if (++C.NextWork >= Items.size())
    C.Done = true;
  return true;
}

std::map<ThreadId, std::vector<std::int64_t>>
HardwareMachine::returns() const {
  std::map<ThreadId, std::vector<std::int64_t>> Out;
  for (const auto &[Id, C] : Cpus)
    Out.emplace(Id, C.Returns);
  return Out;
}

ContextualRefinementReport ccal::checkMulticoreLinking(
    MachineConfigPtr Cfg, unsigned FairnessBound, std::uint64_t MaxSchedules,
    bool CheckExactness) {
  // The layer machine (query-point interleaving) assumes no spinning.
  ExploreOptions LayerOpts;
  LayerOpts.FairnessBound = 1u << 20;
  LayerOpts.MaxSchedules = MaxSchedules;
  GenericExploreOptions<HardwareMachine> HwOpts;
  HwOpts.FairnessBound = FairnessBound;
  HwOpts.MaxSchedules = MaxSchedules;
  HwOpts.MaxSteps = 65536;
  ContextualRefinementReport Report = checkOutcomeInclusion(
      HardwareMachine(Cfg), MultiCoreMachine(Cfg), EventMap::identity(),
      EventMap::identity(), HwOpts, LayerOpts);
  // Sanity bonus: the reduction loses nothing — every layer outcome is
  // also a hardware outcome.  The engine counts each distinct hardware
  // outcome once and the identity relation keeps them distinct, so after
  // the forward inclusion equal counts mean equal sets.  The hardware
  // count is by fingerprint: a collision under-counts it, which fails
  // this check rather than passing it, while the layer count is exact.
  // A hardware fairness bound tighter than the layer machine's can
  // legitimately miss layer outcomes, so this direction stays opt-in;
  // Thm 3.1 itself is the forward inclusion.
  if (CheckExactness && Report.Holds &&
      Report.ImplOutcomes != Report.SpecOutcomes) {
    Report.Holds = false;
    Report.Counterexample = strFormat(
        "only %llu of the %llu layer outcomes are reachable on hardware",
        static_cast<unsigned long long>(Report.ImplOutcomes),
        static_cast<unsigned long long>(Report.SpecOutcomes));
  }
  return Report;
}
