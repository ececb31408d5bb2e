//===- objects/McsLock.cpp - Certified MCS lock -------------------------------===//

#include "objects/McsLock.h"

#include "machine/CpuLocal.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"

using namespace ccal;

namespace {
/// The MCS lock's event kinds, interned once.
const KindId McsInit("mcs_init"), SwapTail("mcs_swap_tail"),
    SetNext("mcs_set_next"), GetBusy("mcs_get_busy"), GetNext("mcs_get_next"),
    CasTail("mcs_cas_tail"), ClearBusy("mcs_clear_busy"), Hold("hold"),
    Acq("acq"), Rel("rel");
} // namespace

Replayer<McsState> ccal::makeMcsReplayer() {
  auto Step = [](McsState &S, const Event &E) {
    if (E.Kind == McsInit) {
      S.Busy[E.Tid] = 1;
      S.Next[E.Tid] = -1;
      return true;
    }
    if (E.Kind == SwapTail) {
      S.Tail = E.Tid;
      return true;
    }
    if (E.Kind == SetNext) {
      if (E.Args.size() != 1 || E.Args[0] < 0)
        return false;
      S.Next[static_cast<ThreadId>(E.Args[0])] = E.Tid;
      return true;
    }
    if (E.Kind == GetBusy || E.Kind == GetNext)
      return true; // reads only append evidence
    if (E.Kind == CasTail) {
      if (E.Args.size() != 1)
        return false;
      bool Success = E.Args[0] != 0;
      if (Success) {
        if (S.Tail != static_cast<std::int64_t>(E.Tid))
          return false; // claimed success without being tail
        if (!S.Holder || *S.Holder != E.Tid)
          return false; // release commit by non-holder
        S.Tail = -1;
        S.Holder.reset();
      } else if (S.Tail == static_cast<std::int64_t>(E.Tid)) {
        return false; // claimed failure while being tail
      }
      return true;
    }
    if (E.Kind == ClearBusy) {
      if (E.Args.size() != 1 || E.Args[0] < 0)
        return false;
      if (!S.Holder || *S.Holder != E.Tid)
        return false; // handoff by non-holder
      S.Busy[static_cast<ThreadId>(E.Args[0])] = 0;
      S.Holder.reset();
      return true;
    }
    if (E.Kind == Hold) {
      if (S.Holder.has_value())
        return false; // mutual exclusion violated
      S.Holder = E.Tid;
    }
    return true;
  };
  Replayer<McsState> R(McsState{}, std::move(Step));
  R.onlyKinds({McsInit, SwapTail, SetNext, GetBusy, GetNext, CasTail,
               ClearBusy, Hold});
  return R;
}

namespace {

/// The MCS part of L0_mcs's fold, shared by every MCS layer.
const FoldPart<McsState> &mcsFold() {
  static const FoldPart<McsState> Part(makeMcsReplayer());
  return Part;
}

} // namespace

McsLockLayers ccal::makeMcsLockLayers() {
  McsLockLayers Out;

  auto L0 = makeInterface("L0_mcs");
  L0->declareFold(mcsFold());
  // The MCS queue (tail/busy/next/holder) is one intertwined structure, so
  // every mutating primitive gets the coarse read+write footprint over the
  // single location "mcs"; only the two pure reads (get_busy/get_next)
  // commute with each other.  Coarser than necessary, but sound — and the
  // lock's realistic contention means there is little to reduce anyway.
  Footprint McsRw = Footprint::of({"mcs"}, {"mcs"});
  Footprint McsRd = Footprint::of({"mcs"}, {});
  // mcs_init: busy = 1, next = nil for the caller's node.
  L0->addShared("mcs_init", makeEventPrim("mcs_init"), McsRw);
  // mcs_swap_tail: atomically tail <- self, returns the previous tail.
  L0->addShared("mcs_swap_tail",
                [](const PrimCall &Call) -> std::optional<PrimResult> {
                  const McsState *S = mcsFold().in(*Call.Fold);
                  if (!S)
                    return std::nullopt;
                  PrimResult Res;
                  Res.Ret = S->Tail;
                  Res.Events.push_back(Event(Call.Tid, SwapTail));
                  return Res;
                },
                McsRw);
  L0->addShared("mcs_set_next", makeEventPrim("mcs_set_next"), McsRw);
  L0->addShared("mcs_get_busy",
                [](const PrimCall &Call) -> std::optional<PrimResult> {
                  const McsState *S = mcsFold().in(*Call.Fold);
                  if (!S)
                    return std::nullopt;
                  PrimResult Res;
                  auto It = S->Busy.find(Call.Tid);
                  Res.Ret = It == S->Busy.end() ? 1 : It->second;
                  Res.Events.push_back(Event(Call.Tid, GetBusy));
                  return Res;
                },
                McsRd);
  L0->addShared("mcs_get_next",
                [](const PrimCall &Call) -> std::optional<PrimResult> {
                  const McsState *S = mcsFold().in(*Call.Fold);
                  if (!S)
                    return std::nullopt;
                  PrimResult Res;
                  auto It = S->Next.find(Call.Tid);
                  Res.Ret = It == S->Next.end() ? -1 : It->second;
                  Res.Events.push_back(Event(Call.Tid, GetNext));
                  return Res;
                },
                McsRd);
  // mcs_cas_tail: CAS(tail, self, nil); the success bit is recorded in the
  // event so the relation can treat a successful CAS as the release commit.
  L0->addShared("mcs_cas_tail",
                [](const PrimCall &Call) -> std::optional<PrimResult> {
                  const McsState *S = mcsFold().in(*Call.Fold);
                  if (!S)
                    return std::nullopt;
                  bool Success =
                      S->Tail == static_cast<std::int64_t>(Call.Tid);
                  PrimResult Res;
                  Res.Ret = Success ? 1 : 0;
                  Res.Events.push_back(Event(Call.Tid, CasTail,
                                             {Success ? 1 : 0}));
                  return Res;
                },
                McsRw);
  L0->addShared("mcs_clear_busy", makeEventPrim("mcs_clear_busy"), McsRw);
  L0->addShared("hold", makeEventPrim("hold"), McsRw);
  L0->addShared("f", makeFetchIncPrim("f"), Footprint::of({"f"}, {"f"}));
  L0->addShared("g", makeFetchIncPrim("g"), Footprint::of({"g"}, {"g"}));
  Out.L0 = L0;

  Out.M1 = parseModuleOrDie("M1_mcs", R"(
    extern void mcs_init();
    extern int mcs_swap_tail();
    extern void mcs_set_next(int prev);
    extern int mcs_get_busy();
    extern int mcs_get_next();
    extern int mcs_cas_tail();
    extern void mcs_clear_busy(int t);
    extern void hold();

    void acq() {
      mcs_init();
      int prev = mcs_swap_tail();
      if (prev != -1) {
        mcs_set_next(prev);
        while (mcs_get_busy() != 0) {}
      }
      hold();
    }

    void rel() {
      int nxt = mcs_get_next();
      if (nxt == -1) {
        if (mcs_cas_tail() == 1) {
          return;
        }
        while (nxt == -1) {
          nxt = mcs_get_next();
        }
      }
      mcs_clear_busy(nxt);
    }
  )");
  typeCheckOrDie(Out.M1);

  // Same atomic overlay as the ticket lock (§6: interchangeable).
  auto L1 = makeInterface("L1");
  addAtomicLock(*L1, "acq", "rel");
  L1->addShared("f", makeFetchIncPrim("f"), Footprint::of({"f"}, {"f"}));
  L1->addShared("g", makeFetchIncPrim("g"), Footprint::of({"g"}, {"g"}));
  Out.L1 = L1;

  Out.R1 = EventMap("R1_mcs", [](const Event &E) -> std::optional<Event> {
    if (E.Kind == Hold)
      return Event(E.Tid, Acq);
    if (E.Kind == CasTail)
      return E.Args == std::vector<std::int64_t>{1}
                 ? std::optional<Event>(Event(E.Tid, Rel))
                 : std::nullopt;
    if (E.Kind == ClearBusy)
      return Event(E.Tid, Rel);
    if (E.Kind == McsInit || E.Kind == SwapTail || E.Kind == SetNext ||
        E.Kind == GetBusy || E.Kind == GetNext)
      return std::nullopt;
    return E;
  });
  return Out;
}

McsLockLayers ccal::makeMcsLockLayersRa() {
  McsLockLayers Out = makeMcsLockLayers();

  // Same semantics, re-registered under ordering-annotated footprints
  // mirroring RtMcsLock.h: Tail.exchange(acq_rel), Prev->Next.store
  // (release, but the coarse-location RMW shape makes it acq_rel here),
  // Locked.load(acquire) spin, release CAS acq_rel.  Every queue mutation
  // being a release of the whole coarse "mcs" location is what keeps the
  // acquire chain unbroken at two CPUs.
  const Footprint McsRw =
      Footprint::of({"mcs"}, {"mcs"})
          .withOrders(MemOrder::AcqRel, MemOrder::AcqRel);
  const Footprint McsSpin =
      Footprint::of({"mcs"}, {})
          .withOrders(MemOrder::Acquire, MemOrder::SeqCst)
          .fairRead();
  auto PlainCounter = [](const char *Loc) {
    return Footprint::of({Loc}, {Loc})
        .withOrders(MemOrder::Relaxed, MemOrder::Relaxed)
        .nonAtomic();
  };

  auto L0 = makeInterface("L0ra_mcs");
  L0->declareFold(Out.L0->fold());
  for (const std::string &N : Out.L0->primNames()) {
    Primitive P = *Out.L0->lookup(N);
    if (N == "f" || N == "g")
      P.Foot = PlainCounter(N.c_str());
    else if (N == "mcs_get_busy" || N == "mcs_get_next")
      P.Foot = McsSpin; // the two spin loops: memory-fair acquire loads
    else
      P.Foot = McsRw;
    L0->addPrim(std::move(P));
  }
  Out.L0 = L0;
  return Out;
}

std::string ccal::mcsMutexInvariant(const MultiCoreMachine &M) {
  if (!mcsFold().declaredIn(M.fold()))
    return "the machine's layer declares no MCS fold";
  if (!mcsFold().in(M.fold()))
    return "mcs replay stuck: mutual exclusion or handoff protocol violated";
  return "";
}

ObjectHarness ccal::makeMcsLockHarness(unsigned NumCpus, unsigned Rounds) {
  return makeLockHarness("mcs_lock", makeMcsLockLayers(), NumCpus, Rounds,
                         mcsMutexInvariant, "mcs.mutex");
}

HarnessOutcome ccal::certifyMcsLock(unsigned NumCpus, unsigned Rounds) {
  return runObjectHarness(makeMcsLockHarness(NumCpus, Rounds));
}

ObjectHarness ccal::makeMcsLockHarnessRa(unsigned NumCpus,
                                         unsigned Rounds) {
  return makeLockHarness("mcs_lock_ra", makeMcsLockLayersRa(), NumCpus,
                         Rounds, mcsMutexInvariant, "mcs.mutex",
                         MemoryModel::Ra);
}

HarnessOutcome ccal::certifyMcsLockRa(unsigned NumCpus, unsigned Rounds) {
  return runObjectHarness(makeMcsLockHarnessRa(NumCpus, Rounds));
}
