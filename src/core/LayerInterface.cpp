//===- core/LayerInterface.cpp - Layer interfaces --------------------------===//

#include "core/LayerInterface.h"

#include "support/Check.h"

using namespace ccal;

void LayerInterface::addPrim(Primitive P) {
  CCAL_CHECK(!P.Name.empty(), "primitive must be named");
  auto [It, Inserted] = Prims.emplace(P.Name, std::move(P));
  CCAL_CHECK(Inserted, "duplicate primitive in layer interface");
  ByKind.emplace(KindId(It->first).id(), &It->second);
}

void LayerInterface::addShared(std::string Name, PrimSemantics Sem) {
  Primitive P;
  P.Name = std::move(Name);
  P.Shared = true;
  P.Sem = std::move(Sem);
  addPrim(std::move(P));
}

void LayerInterface::addShared(std::string Name, PrimSemantics Sem,
                               Footprint Foot) {
  Primitive P;
  P.Name = std::move(Name);
  P.Shared = true;
  P.Sem = std::move(Sem);
  P.Foot = std::move(Foot);
  addPrim(std::move(P));
}

void LayerInterface::addPrivate(std::string Name, PrimSemantics Sem) {
  Primitive P;
  P.Name = std::move(Name);
  P.Shared = false;
  P.Sem = std::move(Sem);
  addPrim(std::move(P));
}

const Primitive *LayerInterface::lookup(const std::string &Name) const {
  auto It = Prims.find(Name);
  return It == Prims.end() ? nullptr : &It->second;
}

std::vector<std::string> LayerInterface::primNames() const {
  std::vector<std::string> Out;
  Out.reserve(Prims.size());
  for (const auto &[Name, P] : Prims)
    Out.push_back(Name);
  return Out;
}

std::shared_ptr<LayerInterface>
LayerInterface::merge(std::string Name, const LayerInterface &A,
                      const LayerInterface &B) {
  auto Out = std::make_shared<LayerInterface>(std::move(Name));
  for (const std::string &PN : A.primNames())
    Out->addPrim(*A.lookup(PN));
  for (const std::string &PN : B.primNames()) {
    CCAL_CHECK(!Out->provides(PN),
               "Hcomp merge: modules must provide disjoint primitives");
    Out->addPrim(*B.lookup(PN));
  }
  // Fig. 9 Hcomp requires both layers to share rely/guarantee; keep A's.
  Out->rg() = A.rg();
  Out->Fold = SharedFold::product(A.Fold, B.Fold);
  return Out;
}
