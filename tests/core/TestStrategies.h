//===- tests/core/TestStrategies.h - Shared §2 strategy builders -*- C++ -*-===//
//
// Strategy automata used across the core tests: the paper's low-level
// ticket-lock acquire strategy phi'_acq[i] and its atomic counterparts.
//
//===----------------------------------------------------------------------===//

#ifndef CCAL_TESTS_CORE_TESTSTRATEGIES_H
#define CCAL_TESTS_CORE_TESTSTRATEGIES_H

#include "core/Simulation.h"
#include "core/Strategy.h"

namespace ccal {
namespace testutil {

/// phi'_acq[Tid] (§2): FAI_t, spin on get_n, then hold (critical).
inline std::unique_ptr<Strategy> makeAcqImplStrategy(ThreadId Tid) {
  auto D = [Tid](AutomatonStrategy::State S, const Log &L)
      -> std::optional<AutomatonStrategy::Transition> {
    AutomatonStrategy::Transition T;
    switch (S) {
    case 0: {
      T.Move.Events.push_back(Event(Tid, KindId("FAI_t")));
      T.Move.Return =
          static_cast<std::int64_t>(logCountKind(L, KindId("FAI_t")));
      T.Next = 1;
      return T;
    }
    case 1: {
      std::int64_t Mine = -1, Idx = 0;
      for (const Event &E : L) {
        if (E.Kind != KindId("FAI_t"))
          continue;
        if (E.Tid == Tid)
          Mine = Idx;
        ++Idx;
      }
      std::int64_t Serving =
          static_cast<std::int64_t>(logCountKind(L, KindId("inc_n")));
      T.Move.Events.push_back(Event(Tid, KindId("get_n")));
      T.Move.Return = Serving;
      T.Next = Serving == Mine ? 2 : 1;
      return T;
    }
    case 2:
      T.Move.Events.push_back(Event(Tid, KindId("hold")));
      T.Move.CriticalAfter = true;
      T.Next = 3;
      return T;
    default:
      return std::nullopt;
    }
  };
  return std::make_unique<AutomatonStrategy>("phi'_acq", 0, 3, std::move(D));
}

/// The low-level release: a single inc_n event.
inline std::unique_ptr<Strategy> makeRelImplStrategy(ThreadId Tid) {
  return makeAtomicCallStrategy(Tid, "inc_n", {}, [](const Log &) {
    return std::optional<std::int64_t>(0);
  });
}

/// The atomic overlay strategies phi_acq / phi_rel (§2).
inline std::unique_ptr<Strategy> makeAcqSpecStrategy(ThreadId Tid) {
  return makeAtomicCallStrategy(Tid, "acq", {}, [](const Log &) {
    return std::optional<std::int64_t>(0);
  });
}
inline std::unique_ptr<Strategy> makeRelSpecStrategy(ThreadId Tid) {
  return makeAtomicCallStrategy(Tid, "rel", {}, [](const Log &) {
    return std::optional<std::int64_t>(0);
  });
}

/// The relation R1 of §2: hold -> acq, inc_n -> rel, other ticket events
/// erased; everything else maps to itself.
inline EventMap makeR1() {
  return EventMap("R1", [](const Event &E) -> std::optional<Event> {
    if (E.Kind == KindId("hold"))
      return Event(E.Tid, KindId("acq"));
    if (E.Kind == KindId("inc_n"))
      return Event(E.Tid, KindId("rel"));
    if (E.Kind == KindId("FAI_t") || E.Kind == KindId("get_n"))
      return std::nullopt;
    return E;
  });
}

} // namespace testutil
} // namespace ccal

#endif // CCAL_TESTS_CORE_TESTSTRATEGIES_H
