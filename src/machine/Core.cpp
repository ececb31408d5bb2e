//===- machine/Core.cpp - One CPU's workload on its LAsm VM -----------------===//

#include "machine/Core.h"

using namespace ccal;

bool Core::runInstruction(const LayerInterface &Layer,
                          std::vector<std::int64_t> &Mem, std::string &Why) {
  if (!Active)
    startNext();
  bool Exhausted = false;
  Vm::Status St = Machine.runBounded(Mem, 1, Exhausted);
  return Exhausted || ranTo(St, Layer, Why);
}

void Core::startNext() {
  const CpuWorkItem &Item = (*Items)[NextWork];
  Machine.start(Item.Fn, Item.Args);
  Active = true;
}

bool Core::dryRunBlocks(const FoldValue &Fold,
                        const std::vector<std::int64_t> &Mem) const {
  std::optional<PrimResult> Res =
      Pending->Sem(PrimCall{Id, Machine.primArgs(), &Fold, &Mem});
  return Res && Res->Blocked;
}

std::string Core::unknownPrim(const LayerInterface &Layer) const {
  return "call to primitive '" + Machine.primName() +
         "' not provided by layer " + Layer.name();
}

std::string Core::stuck(const Primitive &P, const Log &L) {
  if (P.Shared)
    return "shared primitive '" + P.Name +
           "' got stuck (data race or protocol violation); log: " +
           logToString(L);
  return "private primitive '" + P.Name + "' got stuck";
}

std::string Core::blockedUnmarked(const Primitive &P) {
  return (P.Shared ? "shared primitive '" : "private primitive '") + P.Name +
         "' blocked but is not marked MayBlock, so the machine never "
         "dry-runs it";
}
