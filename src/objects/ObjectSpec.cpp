//===- objects/ObjectSpec.cpp - Atomic object specifications ----------------===//

#include "objects/ObjectSpec.h"

using namespace ccal;

void ccal::addAtomicMethod(LayerInterface &L, const std::string &Name,
                           AtomicSemantics Sem, Footprint Foot) {
  KindId Id(Name); // interned once; event construction is an integer copy
  Primitive P;
  P.Name = Name;
  P.MayBlock = true;
  P.Foot = std::move(Foot);
  P.Sem = [Id, Sem](const PrimCall &Call) -> std::optional<PrimResult> {
    AtomicOutcome O = Sem(Call);
    switch (O.K) {
    case AtomicOutcome::Kind::Stuck:
      return std::nullopt;
    case AtomicOutcome::Kind::Blocked:
      return PrimResult::blocked();
    case AtomicOutcome::Kind::Ok: {
      PrimResult Res;
      Res.Events.push_back(Event(Call.Tid, Id, Call.Args));
      Res.Ret = O.Ret;
      return Res;
    }
    }
    return std::nullopt;
  };
  L.addPrim(std::move(P));
}

Replayer<AbstractLockState>
ccal::makeAbstractLockReplayer(std::string AcqKind, std::string RelKind) {
  KindId AcqId(AcqKind), RelId(RelKind);
  auto Step = [AcqId, RelId](AbstractLockState &S, const Event &E) {
    if (E.Kind == AcqId) {
      if (S.Holder.has_value())
        return false; // acq while held: mutual exclusion violated
      S.Holder = E.Tid;
      ++S.Acquisitions;
      return true;
    }
    if (E.Kind == RelId) {
      if (!S.Holder || *S.Holder != E.Tid)
        return false; // rel by a non-holder
      S.Holder.reset();
    }
    return true;
  };
  Replayer<AbstractLockState> R(AbstractLockState{}, std::move(Step));
  // The fold leaves S unchanged for every other kind — declare that so
  // replay skips them without the type-erased call.
  R.onlyKinds({AcqId, RelId});
  return R;
}

FoldPart<AbstractLockState> ccal::addAtomicLock(LayerInterface &L,
                                                const std::string &AcqKind,
                                                const std::string &RelKind) {
  FoldPart<AbstractLockState> Lock(makeAbstractLockReplayer(AcqKind, RelKind));
  L.declareFold(Lock);

  // Both methods read the holder and mutate it with their event:
  // read+write of one abstract location per lock.
  Footprint LockFoot =
      Footprint::of({"lock." + AcqKind}, {"lock." + AcqKind});

  addAtomicMethod(L, AcqKind,
                  [Lock](const PrimCall &Call) -> AtomicOutcome {
                    const AbstractLockState *S = Lock.in(*Call.Fold);
                    if (!S)
                      return AtomicOutcome::stuck();
                    if (S->Holder.has_value()) {
                      // Re-acquiring while holding is a protocol violation;
                      // waiting for another holder is a normal Blocked.
                      return *S->Holder == Call.Tid ? AtomicOutcome::stuck()
                                                    : AtomicOutcome::blocked();
                    }
                    return AtomicOutcome::ok(0);
                  },
                  LockFoot);

  addAtomicMethod(L, RelKind,
                  [Lock](const PrimCall &Call) -> AtomicOutcome {
                    return holdsLock(Lock, *Call.Fold, Call.Tid)
                               ? AtomicOutcome::ok(0)
                               : AtomicOutcome::stuck();
                  },
                  LockFoot);
  return Lock;
}

bool ccal::holdsLock(const FoldPart<AbstractLockState> &Lock,
                     const FoldValue &Fold, ThreadId Tid) {
  const AbstractLockState *S = Lock.in(Fold);
  return S && S->Holder && *S->Holder == Tid;
}
