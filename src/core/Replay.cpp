//===- core/Replay.cpp - Shared-state folds --------------------------------===//

#include "core/Replay.h"

#include <algorithm>

using namespace ccal;

void FoldValue::advance(const Event &E) {
  auto It = std::find_if(Counts.begin(), Counts.end(),
                         [&E](const KindCount &C) { return C.Kind == E.Kind; });
  if (It != Counts.end())
    ++It->N;
  else
    Counts.insert(std::upper_bound(Counts.begin(), Counts.end(), E.Kind.id(),
                                   [](std::uint32_t Id, const KindCount &C) {
                                     return Id < C.Kind.id();
                                   }),
                  KindCount{E.Kind, 1});
  for (Slot &S : Parts)
    S.Part->step(S.State, E);
}

FoldValue &FoldValue::operator=(const FoldValue &O) {
  if (this == &O)
    return *this;
  Counts = O.Counts;
  const bool SameParts =
      Parts.size() == O.Parts.size() &&
      std::equal(Parts.begin(), Parts.end(), O.Parts.begin(),
                 [](const Slot &A, const Slot &B) { return A.Part == B.Part; });
  if (!SameParts) {
    Parts = O.Parts; // a differently declared fold
    return *this;
  }
  for (size_t I = 0, N = Parts.size(); I != N; ++I)
    Parts[I].Part->assign(Parts[I].State, O.Parts[I].State);
  return *this;
}

bool FoldValue::operator==(const FoldValue &O) const {
  if (Counts != O.Counts || Parts.size() != O.Parts.size())
    return false;
  for (size_t I = 0, N = Parts.size(); I != N; ++I)
    if (Parts[I].Part != O.Parts[I].Part ||
        !Parts[I].Part->equal(Parts[I].State, O.Parts[I].State))
      return false;
  return true;
}

void SharedFold::add(std::shared_ptr<const detail::FoldPartBase> P) {
  for (const auto &Q : Parts)
    if (Q == P)
      return;
  Parts.push_back(std::move(P));
}

SharedFold SharedFold::product(const SharedFold &A, const SharedFold &B) {
  SharedFold Out = A;
  for (const auto &P : B.Parts)
    Out.add(P);
  return Out;
}

FoldValue SharedFold::initial() const {
  FoldValue V;
  V.Parts.reserve(Parts.size());
  for (const auto &P : Parts)
    V.Parts.push_back({P.get(), P->initial()});
  return V;
}

FoldValue SharedFold::replay(const Log &L) const {
  FoldValue V = initial();
  for (const Event &E : L)
    V.advance(E);
  return V;
}

void ccal::appendFolded(Log &L, FoldValue &V, std::vector<Event> &&Events) {
  for (Event &E : Events) {
    V.advance(E);
    L.push_back(std::move(E));
  }
}
