//===- machine/MemoryModel.cpp - The release/acquire model -----------------===//

#include "machine/MemoryModel.h"

#include "core/LayerInterface.h"
#include "support/Check.h"

#include <algorithm>

using namespace ccal;

namespace {

/// A step's SC coupling: SeqCst accesses synchronize with the global SC
/// view bidirectionally.
bool scCoupled(const Footprint &F) {
  if (!F.Reads.empty() && F.ReadOrd == MemOrder::SeqCst)
    return true;
  if (!F.Writes.empty() && F.WriteOrd == MemOrder::SeqCst)
    return true;
  return false;
}

/// A read location whose reads-from choice is enumerable: not SeqCst (those
/// read latest), not memory-fair (spin reads, which read latest by the
/// await-termination assumption), and not the read half of an atomic RMW
/// (which also reads latest — that is what makes it an RMW).
bool enumerable(const Footprint &F, const std::string &Loc) {
  if (F.ReadOrd == MemOrder::SeqCst || F.FairRead)
    return false;
  if (F.Atomic &&
      std::binary_search(F.Writes.begin(), F.Writes.end(), Loc))
    return false;
  return true;
}

std::uint64_t moLen(const RaState &S, const std::string &Loc) {
  auto It = S.Mo.find(Loc);
  return It == S.Mo.end() ? 0 : It->second.size();
}

RaView entryView(const RaState &S, ThreadId Tid, const Footprint &F) {
  RaView E;
  auto It = S.Views.find(Tid);
  if (It != S.Views.end())
    E = It->second;
  if (scCoupled(F))
    E.join(S.Sc);
  return E;
}

/// Decoded reads-from choice of one step: the view the step entered with
/// and, for each enumerable read location (in sorted Reads order), the
/// chosen position into mo(l) — a count in [entry front, |mo(l)|], where
/// position k means "observes exactly the first k writes".
struct RaChoice {
  RaView Entry;
  std::vector<std::pair<std::string, std::uint32_t>> Pos;
};

/// Mixed-radix decode, one digit per enumerable read location in sorted
/// order; digit d maps to position |mo(l)| - d, so variant 0 is the
/// all-latest (SC-coincident) choice.
RaChoice decode(const RaState &S, ThreadId Tid, const Footprint &F,
                unsigned Variant) {
  RaChoice C;
  C.Entry = entryView(S, Tid, F);
  std::uint64_t V = Variant;
  for (const std::string &Loc : F.Reads) {
    if (!enumerable(F, Loc))
      continue;
    const std::uint64_t MoLen = moLen(S, Loc);
    const std::uint64_t Front = C.Entry.of(Loc);
    const std::uint64_t Radix = MoLen - Front + 1;
    const std::uint64_t Digit = V % Radix;
    V /= Radix;
    C.Pos.emplace_back(Loc, static_cast<std::uint32_t>(MoLen - Digit));
  }
  CCAL_CHECK(V == 0, "reads-from variant out of range");
  return C;
}

} // namespace

unsigned RaState::stepVariants(ThreadId Tid, const Footprint &F,
                               unsigned Budget) const {
  const RaView Entry = entryView(*this, Tid, F);
  std::uint64_t Count = 1;
  for (const std::string &Loc : F.Reads) {
    if (!enumerable(F, Loc))
      continue;
    const std::uint64_t MoLen = moLen(*this, Loc);
    const std::uint64_t Front = Entry.of(Loc);
    CCAL_CHECK(Front <= MoLen, "view front beyond modification order");
    Count *= MoLen - Front + 1;
    if (Count > Budget)
      return Budget + 1; // saturate: caller faults fail-closed
  }
  return static_cast<unsigned>(Count);
}

std::optional<Log> RaState::visibleLog(const Log &Full, ThreadId Tid,
                                       const Footprint &F,
                                       unsigned Variant) const {
  const RaChoice C = decode(*this, Tid, F, Variant);
  // Hide every event that writes a chosen location beyond its chosen
  // position.  Events writing only other locations stay visible; the
  // footprint contract says they cannot influence this primitive.
  std::vector<std::uint32_t> Hidden;
  for (const auto &[Loc, Pos] : C.Pos) {
    auto It = Mo.find(Loc);
    if (It == Mo.end())
      continue;
    const std::vector<RaMsg> &Msgs = It->second;
    for (std::size_t K = Pos; K < Msgs.size(); ++K)
      Hidden.push_back(Msgs[K].LogIdx);
  }
  if (Hidden.empty())
    return std::nullopt;
  std::sort(Hidden.begin(), Hidden.end());
  Hidden.erase(std::unique(Hidden.begin(), Hidden.end()), Hidden.end());
  Log Out;
  auto Next = Hidden.begin();
  for (std::size_t I = 0, E = Full.size(); I != E; ++I) {
    if (Next != Hidden.end() && *Next == I) {
      ++Next;
      continue;
    }
    Out.push_back(Full[I]);
  }
  return Out;
}

void RaState::commit(const Log &Full, std::size_t FirstNew, ThreadId Tid,
                     const Footprint &F, unsigned Variant,
                     const LayerInterface &Layer) {
  RaChoice C = decode(*this, Tid, F, Variant);
  RaView E = C.Entry;

  // Reads: advance the front on every read location (coherence), and
  // collect acquire joins from release messages read-from.  All reads
  // choose against the entry view; joins apply afterwards (see header).
  RaView AcqJoin;
  auto ChosenPos = [&](const std::string &Loc) -> std::uint32_t {
    for (const auto &[L, P] : C.Pos)
      if (L == Loc)
        return P;
    return static_cast<std::uint32_t>(moLen(*this, Loc)); // reads latest
  };
  for (const std::string &Loc : F.Reads) {
    const std::uint32_t Pos = ChosenPos(Loc);
    E.advance(Loc, Pos);
    if (Pos == 0 || !F.readActsAcquire())
      continue;
    auto It = Mo.find(Loc);
    if (It != Mo.end() && It->second[Pos - 1].Release)
      AcqJoin.join(It->second[Pos - 1].View);
  }
  E.join(AcqJoin);

  // Writes: one message per write location of each appended event; the
  // message view is the writer's view including the write itself.
  for (std::size_t I = FirstNew, End = Full.size(); I != End; ++I) {
    const Primitive *P = Layer.lookup(Full[I].Kind);
    if (!P || P->Foot.Writes.empty())
      continue;
    const Footprint &EF = P->Foot;
    std::vector<std::pair<const std::string *, std::size_t>> NewMsgs;
    for (const std::string &Loc : EF.Writes) {
      std::vector<RaMsg> &Msgs = Mo[Loc];
      RaMsg M;
      M.Release = EF.writeActsRelease();
      M.LogIdx = static_cast<std::uint32_t>(I);
      Msgs.push_back(std::move(M));
      E.advance(Loc, static_cast<std::uint32_t>(Msgs.size()));
      NewMsgs.emplace_back(&Loc, Msgs.size() - 1);
    }
    for (auto &[Loc, MsgIdx] : NewMsgs)
      Mo[*Loc][MsgIdx].View = E;
  }

  if (scCoupled(F))
    Sc.join(E);
  Views[Tid] = std::move(E);
}
