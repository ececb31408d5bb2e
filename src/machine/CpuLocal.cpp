//===- machine/CpuLocal.cpp - CPU-local layer interfaces ---------------------===//

#include "machine/CpuLocal.h"

using namespace ccal;

PrimSemantics ccal::makeFetchIncPrim(std::string Kind) {
  // Intern once at construction; the semantics then runs on integer ids.
  KindId Id(Kind);
  return [Id](const PrimCall &Call) -> std::optional<PrimResult> {
    PrimResult Res;
    Res.Ret = static_cast<std::int64_t>(Call.Fold->count(Id));
    Res.Events.push_back(Event(Call.Tid, Id, Call.Args));
    return Res;
  };
}

PrimSemantics ccal::makeReadCounterPrim(std::string Kind,
                                        std::string CountedKind) {
  KindId Id(Kind), CountedId(CountedKind);
  return [Id, CountedId](const PrimCall &Call)
             -> std::optional<PrimResult> {
    PrimResult Res;
    Res.Ret = static_cast<std::int64_t>(Call.Fold->count(CountedId));
    Res.Events.push_back(Event(Call.Tid, Id, Call.Args));
    return Res;
  };
}

PrimSemantics ccal::makeEventPrim(std::string Kind) {
  KindId Id(Kind);
  return [Id](const PrimCall &Call) -> std::optional<PrimResult> {
    PrimResult Res;
    Res.Events.push_back(Event(Call.Tid, Id, Call.Args));
    return Res;
  };
}

PrimSemantics ccal::makeConstPrim(std::int64_t Value) {
  return [Value](const PrimCall &) -> std::optional<PrimResult> {
    PrimResult Res;
    Res.Ret = Value;
    return Res;
  };
}

PrimSemantics ccal::makeSelfIdPrim() {
  return [](const PrimCall &Call) -> std::optional<PrimResult> {
    PrimResult Res;
    Res.Ret = static_cast<std::int64_t>(Call.Tid);
    return Res;
  };
}

std::shared_ptr<LayerInterface> ccal::makeInterface(std::string Name) {
  return std::make_shared<LayerInterface>(std::move(Name));
}
