//===- core/Replay.h - Replay functions and shared-state folds -*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replay functions (§2): "functions that reconstruct the current shared
/// state from the log".  A replay function folds over the event log; an
/// event the state cannot accept makes the replay *stuck* — the executable
/// analogue of the machine getting stuck on a data race (§3.1).
///
/// Each object defines its own replay (`Rticket` for the ticket lock,
/// `Rshared` for push/pull memory, `Rsched` for the scheduler...); this
/// header provides the shared fold machinery.  A Replayer is an initial
/// state plus a step per event; replay() runs it from scratch over a log.
///
/// A layer interface declares the replays its primitives and invariants
/// read as its SharedFold.  A machine keeps the fold's FoldValue in its
/// snapshot and advances it by each event it appends (appendFolded), so a
/// primitive reads the shared state in O(1) instead of rescanning the log;
/// the value always equals the fold run from the initial value over the
/// machine's log.  Every fold also counts the appended events per kind.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CORE_REPLAY_H
#define CCAL_CORE_REPLAY_H

#include "core/Log.h"
#include "support/Check.h"

#include <any>
#include <functional>
#include <memory>
#include <optional>

namespace ccal {

/// A replay function over logs producing shared state of type \p State.
/// `Step(S, E)` folds event E into S in place and returns true, or returns
/// false when E is not acceptable in state S (stuck — e.g. pulling an
/// owned location); S is unspecified after a false return.
template <typename State> class Replayer {
public:
  using StepFn = std::function<bool(State &, const Event &)>;

  Replayer(State Init, StepFn Step)
      : Init(std::move(Init)), Step(std::move(Step)) {}

  /// Declares that Step is the IDENTITY on every event kind not listed,
  /// letting the fold skip foreign events with an integer compare instead
  /// of a type-erased Step call — on machine logs most events belong to
  /// other objects (scheduling, other primitives).  The caller is
  /// promising the semantic fact; a Step that inspects unlisted kinds must
  /// not use this.
  Replayer &onlyKinds(std::initializer_list<KindId> Kinds) {
    Relevant.assign(Kinds.begin(), Kinds.end());
    return *this;
  }

  const State &initial() const { return Init; }

  /// Folds one event into \p S; false when E is stuck in S.
  bool step(State &S, const Event &E) const {
    return !Relevant.empty() && !isRelevant(E.Kind) ? true : Step(S, E);
  }

  /// Replays the full log from the initial state: one pass, folding each
  /// event into a single state in place.  std::nullopt when an event is
  /// stuck.
  std::optional<State> replay(const Log &L) const {
    State S = Init;
    for (const Event &E : L)
      if (!step(S, E))
        return std::nullopt;
    return S;
  }

  /// True when the whole log replays without getting stuck ("well-formed",
  /// Fig. 8).
  bool wellFormed(const Log &L) const { return replay(L).has_value(); }

private:
  bool isRelevant(KindId K) const {
    for (KindId R : Relevant)
      if (R == K)
        return true;
    return false;
  }

  State Init;
  StepFn Step;
  std::vector<KindId> Relevant; ///< empty = every kind is relevant
};

namespace detail {

/// One declared part of a fold with its state type erased.  A part's
/// state lives in a std::any; an empty one means the part got stuck.
class FoldPartBase {
public:
  virtual ~FoldPartBase() = default;
  virtual std::any initial() const = 0;
  /// Folds E into S; empties S when E is stuck (a stuck part stays stuck).
  virtual void step(std::any &S, const Event &E) const = 0;
  virtual bool equal(const std::any &A, const std::any &B) const = 0;
  /// Dst = Src.  Assigning the state itself when both hold one reuses the
  /// storage Dst's state already owns (std::any's own assignment always
  /// builds a fresh state); a stuck side takes the plain copy.
  virtual void assign(std::any &Dst, const std::any &Src) const = 0;
};

template <typename State> class FoldPartImpl final : public FoldPartBase {
public:
  explicit FoldPartImpl(Replayer<State> R) : R(std::move(R)) {}

  std::any initial() const override { return R.initial(); }

  void step(std::any &S, const Event &E) const override {
    State *P = std::any_cast<State>(&S);
    if (P && !R.step(*P, E))
      S.reset();
  }

  bool equal(const std::any &A, const std::any &B) const override {
    const State *X = std::any_cast<State>(&A);
    const State *Y = std::any_cast<State>(&B);
    return X && Y ? *X == *Y : X == Y;
  }

  void assign(std::any &Dst, const std::any &Src) const override {
    State *D = std::any_cast<State>(&Dst);
    const State *S = std::any_cast<State>(&Src);
    if (D && S)
      *D = *S;
    else
      Dst = Src;
  }

  Replayer<State> R;
};

} // namespace detail

template <typename State> class FoldPart;

/// The value of a layer's shared-state fold: the per-kind event counts
/// plus one state per declared part.  Machines keep it in every snapshot:
/// moving it moves two vectors, and copying it copies the counts and each
/// part's state (the lock jobs declare one part).  Copy-assigning a value
/// of the same fold assigns each part's state in place, so a snapshot slot
/// keeps the storage its states already own.  A value refers to its parts'
/// declarations, which live as long as the declaring interface.
class FoldValue {
public:
  FoldValue() = default;
  FoldValue(const FoldValue &) = default;
  FoldValue(FoldValue &&) = default;
  FoldValue &operator=(FoldValue &&) = default;
  FoldValue &operator=(const FoldValue &O);

  /// Number of folded events of kind \p K (the paper's counter replays:
  /// `FAI_t` fetches the count of earlier `FAI_t` events).
  std::uint64_t count(KindId K) const {
    for (const KindCount &C : Counts)
      if (C.Kind == K)
        return C.N;
    return 0;
  }

  /// Folds one event into the value.
  void advance(const Event &E);

  bool operator==(const FoldValue &O) const;

private:
  template <typename> friend class FoldPart;
  friend class SharedFold;

  struct KindCount {
    KindId Kind;
    std::uint64_t N;
    bool operator==(const KindCount &) const = default;
  };
  struct Slot {
    const detail::FoldPartBase *Part;
    std::any State; ///< empty once the part is stuck
  };

  const std::any *stateOf(const detail::FoldPartBase *P) const {
    for (const Slot &S : Parts)
      if (S.Part == P)
        return &S.State;
    return nullptr;
  }

  std::vector<KindCount> Counts; ///< ordered by kind id
  std::vector<Slot> Parts;       ///< in declaration order
};

/// A typed handle on one part of a fold, built from the part's replay
/// function.  Declare it on a layer interface (LayerInterface::declareFold)
/// and read it from a PrimCall's or a machine's FoldValue.
template <typename State> class FoldPart {
public:
  explicit FoldPart(Replayer<State> R)
      : Impl(std::make_shared<detail::FoldPartImpl<State>>(std::move(R))) {}

  const Replayer<State> &replayer() const { return Impl->R; }

  /// True when \p V is a value of a fold that declares this part.
  bool declaredIn(const FoldValue &V) const {
    return V.stateOf(Impl.get()) != nullptr;
  }

  /// This part's state in \p V; nullptr when the fold got stuck on it.
  /// The part must be declared by V's fold.
  const State *in(const FoldValue &V) const {
    const std::any *S = V.stateOf(Impl.get());
    CCAL_CHECK(S, "fold part read from a layer that does not declare it");
    return std::any_cast<State>(S);
  }

private:
  friend class SharedFold;
  std::shared_ptr<const detail::FoldPartImpl<State>> Impl;
};

/// A layer's declared fold: the per-kind counts every fold keeps, times
/// the declared parts.
class SharedFold {
public:
  /// Adds \p P as a part; declaring the same part twice keeps one.
  template <typename State> void declare(const FoldPart<State> &P) {
    add(P.Impl);
  }

  /// The product of two folds (the Hcomp merge of their interfaces).
  static SharedFold product(const SharedFold &A, const SharedFold &B);

  FoldValue initial() const;

  /// The fold run from its initial value over \p L.
  FoldValue replay(const Log &L) const;

private:
  void add(std::shared_ptr<const detail::FoldPartBase> P);

  std::vector<std::shared_ptr<const detail::FoldPartBase>> Parts;
};

/// Appends \p Events to \p L and folds each into \p V — the one place a
/// machine grows its log, so its fold value never drifts from the log.
/// Each event is moved into the log once it is folded.
void appendFolded(Log &L, FoldValue &V, std::vector<Event> &&Events);

} // namespace ccal

#endif // CCAL_CORE_REPLAY_H
