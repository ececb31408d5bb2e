//===- machine/HardwareMachine.cpp - Instruction-level Mx86 -------------------===//

#include "machine/HardwareMachine.h"

#include "support/Check.h"
#include "support/Text.h"

using namespace ccal;

HardwareMachine::HardwareMachine(const MachineConfigPtr &CfgIn)
    : Cfg(CfgIn.get()) {
  CCAL_CHECK(Cfg && Cfg->Layer && Cfg->Program && Cfg->Program->Linked,
             "machine config needs a layer and a linked program");
  CCAL_CHECK(Cfg->Model == MemoryModel::Sc,
             "the hardware machine is SC-only; run weak-memory "
             "verification on the query-point MultiCoreMachine");
  Fold = Cfg->Layer->fold().initial();
  std::vector<std::int64_t> Image = Cfg->Program->initialGlobals();
  for (const auto &[Id, Items] : Cfg->Work) {
    auto [It, Inserted] =
        Cpus.emplace(Id, Cpu{Core(Cfg->Program, Id, Items), Image});
    CCAL_CHECK(Inserted, "duplicate CPU id");
  }
}

void HardwareMachine::fault(ThreadId Id, const std::string &Msg) {
  if (Err.empty())
    Err = strFormat("CPU %u: %s", Id, Msg.c_str());
}

bool HardwareMachine::allIdle() const {
  for (const auto &[Id, C] : Cpus)
    if (!C.Exec.finished())
      return false;
  return true;
}

void HardwareMachine::schedulable(std::vector<ThreadId> &Out) const {
  Out.clear();
  for (const auto &[Id, C] : Cpus)
    if (!C.Exec.finished() &&
        !(C.Exec.pending() && C.Exec.blocked(Fold, C.Globals)))
      Out.push_back(Id);
}

bool HardwareMachine::step(ThreadId Id) {
  if (!ok())
    return false;
  auto It = Cpus.find(Id);
  CCAL_CHECK(It != Cpus.end(), "step: unknown CPU");
  Cpu &C = It->second;
  CCAL_CHECK(!C.Exec.finished(), "step: CPU has no work left");
  // One hardware cycle: the call the VM paused at, or one instruction.
  std::string Why;
  if (C.Exec.pending()
          ? C.Exec.call(Fold, GlobalLog, Fold, C.Globals, Why)
          : C.Exec.runInstruction(*Cfg->Layer, C.Globals, Why))
    return true;
  fault(Id, Why);
  return false;
}

void HardwareMachine::returns(ReturnMap &Out) const {
  writeReturns(Out, [this](auto Put) {
    for (const auto &[Id, C] : Cpus)
      Put(Id, C.Exec.returns());
  });
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
