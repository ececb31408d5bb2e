//===- core/Log.cpp - The global event log --------------------------------===//

#include "core/Log.h"

using namespace ccal;

void ccal::logAppendAll(Log &L, const std::vector<Event> &Events) {
  for (const Event &E : Events)
    L.push_back(E);
}

std::string ccal::logToString(const Log &L) {
  std::string Out;
  for (size_t I = 0, E = L.size(); I != E; ++I) {
    if (I != 0)
      Out += " \xE2\x80\xA2 "; // " • "
    Out += L[I].toString();
  }
  return Out;
}

std::uint64_t ccal::logCount(const Log &L, ThreadId Tid, KindId Kind) {
  std::uint64_t N = 0;
  for (const Event &E : L)
    if (E.Tid == Tid && E.Kind == Kind)
      ++N;
  return N;
}

std::uint64_t ccal::logCountKind(const Log &L, KindId Kind) {
  std::uint64_t N = 0;
  for (const Event &E : L)
    if (E.Kind == Kind)
      ++N;
  return N;
}

Log ccal::logFilterTid(const Log &L, ThreadId Tid) {
  Log Out;
  for (const Event &E : L)
    if (E.Tid == Tid)
      Out.push_back(E);
  return Out;
}

Log ccal::logFilterKind(const Log &L, KindId Kind) {
  Log Out;
  for (const Event &E : L)
    if (E.Kind == Kind)
      Out.push_back(E);
  return Out;
}

ThreadId ccal::logControl(const Log &L, ThreadId Default) {
  for (size_t I = L.size(); I != 0; --I)
    if (L[I - 1].isSched())
      return L[I - 1].Tid;
  return Default;
}

std::uint64_t ccal::hashLog(const Log &L) {
  // The fold over the events is maintained incrementally by the Log on
  // every append, so hashing is O(1) regardless of length.
  return hashCombine(L.runHash(), L.size());
}
