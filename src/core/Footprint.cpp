//===- core/Footprint.cpp - Step footprints over shared locations ------------===//

#include "core/Footprint.h"

#include <algorithm>
#include <map>
#include <queue>

using namespace ccal;

const char *ccal::memOrderName(MemOrder O) {
  switch (O) {
  case MemOrder::Relaxed:
    return "relaxed";
  case MemOrder::Acquire:
    return "acquire";
  case MemOrder::Release:
    return "release";
  case MemOrder::AcqRel:
    return "acq_rel";
  case MemOrder::SeqCst:
    return "seq_cst";
  }
  return "?";
}

Footprint Footprint::of(std::vector<std::string> Reads,
                        std::vector<std::string> Writes) {
  auto Normalize = [](std::vector<std::string> &V) {
    std::sort(V.begin(), V.end());
    V.erase(std::unique(V.begin(), V.end()), V.end());
  };
  Footprint F;
  F.Reads = std::move(Reads);
  F.Writes = std::move(Writes);
  Normalize(F.Reads);
  Normalize(F.Writes);
  return F;
}

namespace {

/// Intersection test on sorted vectors.
bool intersects(const std::vector<std::string> &A,
                const std::vector<std::string> &B) {
  auto IA = A.begin();
  auto IB = B.begin();
  while (IA != A.end() && IB != B.end()) {
    int C = IA->compare(*IB);
    if (C == 0)
      return true;
    if (C < 0)
      ++IA;
    else
      ++IB;
  }
  return false;
}

/// True when the steps behind \p A and \p B do not commute: either one is
/// opaque (and the other non-local), or a write of one intersects a read
/// or write of the other.  Local footprints never conflict.  When either
/// side is weakOrdered(), two reads of the same location also conflict:
/// under a weak model a read advances the reader's view front, so
/// same-location reads do not commute.
bool footprintsConflict(const Footprint &A, const Footprint &B) {
  if (A.local() || B.local())
    return false;
  if (A.Opaque || B.Opaque)
    return true;
  if (intersects(A.Writes, B.Writes) || intersects(A.Writes, B.Reads) ||
      intersects(A.Reads, B.Writes))
    return true;
  if (A.weakOrdered() || B.weakOrdered())
    return intersects(A.Reads, B.Reads);
  return false;
}

} // namespace

Log ccal::canonicalizeLog(
    const Log &L, const std::function<Footprint(KindId Kind)> &FootOfKind) {
  const size_t N = L.size();
  if (N < 2)
    return L;

  // Footprints are kind-determined; look each kind up once (keyed by the
  // interned id — integer map probes, no string compares).
  std::map<std::uint32_t, Footprint> FootCache;
  auto FootOf = [&](const Event &E) -> const Footprint & {
    auto It = FootCache.find(E.Kind.id());
    if (It == FootCache.end())
      It = FootCache.emplace(E.Kind.id(), FootOfKind(E.Kind)).first;
    return It->second;
  };

  // Event identity within the trace: (Tid, per-Tid index).  Both are
  // preserved by any reordering that keeps per-participant order, so the
  // dependence DAG below — and hence its canonical linearization — is the
  // same for every linearization of the same trace.
  std::vector<std::uint64_t> Seq(N);
  {
    std::map<ThreadId, std::uint64_t> PerTid;
    for (size_t I = 0; I != N; ++I)
      Seq[I] = PerTid[L[I].Tid]++;
  }

  std::vector<std::vector<size_t>> Succ(N);
  std::vector<size_t> Indegree(N, 0);
  for (size_t I = 0; I != N; ++I)
    for (size_t J = I + 1; J != N; ++J) {
      if (L[I].Tid != L[J].Tid &&
          !footprintsConflict(FootOf(L[I]), FootOf(L[J])))
        continue;
      Succ[I].push_back(J);
      ++Indegree[J];
    }

  // Kahn's algorithm; the ready event with the smallest (Tid, Seq) wins,
  // which is a total order since (Tid, Seq) is unique per event.
  using Key = std::pair<std::pair<ThreadId, std::uint64_t>, size_t>;
  std::priority_queue<Key, std::vector<Key>, std::greater<Key>> Ready;
  for (size_t I = 0; I != N; ++I)
    if (Indegree[I] == 0)
      Ready.push({{L[I].Tid, Seq[I]}, I});

  Log Out;
  Out.reserve(N);
  while (!Ready.empty()) {
    size_t I = Ready.top().second;
    Ready.pop();
    Out.push_back(L[I]);
    for (size_t J : Succ[I])
      if (--Indegree[J] == 0)
        Ready.push({{L[J].Tid, Seq[J]}, J});
  }
  return Out;
}
