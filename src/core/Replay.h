//===- core/Replay.h - Replay functions ------------------------*- C++ -*-===//
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
/// header provides the shared fold machinery.  A replay is a plain fold:
/// one pass from the initial state, each step updating a single state in
/// place, and nothing cached between calls, so its answer is a function
/// of the log alone.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CORE_REPLAY_H
#define CCAL_CORE_REPLAY_H

#include "core/Log.h"

#include <functional>
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
  /// letting replay skip foreign events with an integer compare instead
  /// of a type-erased Step call — on machine logs most events belong to
  /// other objects (scheduling, other primitives), so this removes the
  /// dominant cost of log-replay primitives.  The caller is promising the
  /// semantic fact; a Step that inspects unlisted kinds must not use this.
  Replayer &onlyKinds(std::initializer_list<KindId> Kinds) {
    Relevant.assign(Kinds.begin(), Kinds.end());
    return *this;
  }

  /// Replays the full log from the initial state: one pass, folding each
  /// relevant event into a single state in place.  std::nullopt when an
  /// event is stuck.
  std::optional<State> replay(const Log &L) const {
    State S = Init;
    const bool Filter = !Relevant.empty();
    for (const Event &E : L) {
      if (Filter && !isRelevant(E.Kind))
        continue;
      if (!Step(S, E))
        return std::nullopt;
    }
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

} // namespace ccal

#endif // CCAL_CORE_REPLAY_H
