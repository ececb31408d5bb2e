//===- core/Simulation.h - Strategy simulation (Def 2.1) -------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Strategy simulation `phi <=_R phi'` (Definition 2.1): "for any two
/// related environmental event sequences and any two related initial logs,
/// for any log l produced by phi, there must exist a log l' that can be
/// produced by phi' such that l and l' also satisfy R."
///
/// Relations R between logs are given as *event abstraction maps* — the
/// shape every relation in the paper takes (e.g. R1 maps `i.hold` to
/// `i.acq`, `i.inc_n` to `i.rel`, and the remaining lock events to empty
/// ones).  The checker runs the implementation strategy against every
/// environment behavior offered by an EnvModel (the executable rely
/// condition), maps each emitted event through R, and demands the
/// specification strategy produce exactly the mapped events, with matching
/// return values on matched moves.  Every run explored without a mismatch
/// discharges one batch of simulation obligations; a failing run yields a
/// counterexample trace.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CORE_SIMULATION_H
#define CCAL_CORE_SIMULATION_H

#include "core/Certificate.h"
#include "core/EnvContext.h"
#include "core/Strategy.h"

#include <functional>
#include <optional>
#include <string>

namespace ccal {

/// A simulation relation between logs, represented as a per-event
/// abstraction map: events mapping to std::nullopt are erased ("mapped to
/// empty ones"); the mapped implementation log must equal the spec log.
class EventMap {
public:
  using MapFn = std::function<std::optional<Event>(const Event &)>;

  EventMap(std::string Name, MapFn Fn)
      : TheName(std::move(Name)), Fn(std::move(Fn)) {}

  /// Default-constructs the identity relation.
  EventMap() : EventMap("id", [](const Event &E) { return E; }) {}

  /// The identity relation `id`.
  static EventMap identity();

  /// `compose(R, S)` is the relation R followed by S (the calculus'
  /// `R o S` for Vcomp).
  static EventMap compose(const EventMap &R, const EventMap &S);

  const std::string &name() const { return TheName; }

  std::optional<Event> map(const Event &E) const { return Fn(E); }

  /// Maps every event, dropping the erased ones.
  Log apply(const Log &L) const;

private:
  std::string TheName;
  MapFn Fn;
};

/// Tuning knobs for the simulation search.
struct SimOptions {
  /// Maximum implementation moves along one run before the run is
  /// considered divergent (a liveness failure under a valid environment).
  unsigned MaxMoves = 64;

  /// Maximum complete runs to explore (guards pathological env models).
  std::uint64_t MaxRuns = 1u << 20;

  /// Stable name identifying the EnvModel's semantics in certificate-store
  /// keys ("scripted:fig3", "strategy-env:ticket[2]", ...).  EnvModel is
  /// an opaque decision tree the key cannot hash, so simulation checks are
  /// cacheable only when the caller names it; an empty EnvKey bypasses the
  /// store (fail closed).  The strategies and relation enter the key
  /// through describe()/name() on their own.
  std::string EnvKey;
};

/// Outcome of a simulation check.
struct SimReport {
  bool Holds = false;

  /// False when MaxRuns cut the search off before every environment branch
  /// was explored (Holds is then false too — a truncated search proves
  /// nothing); recorded in the certificate's coverage fields.
  bool Complete = true;

  std::uint64_t Runs = 0;        ///< complete runs explored
  std::uint64_t Moves = 0;       ///< implementation moves executed
  std::uint64_t Obligations = 0; ///< matched spec moves
  std::string Counterexample;    ///< non-empty when !Holds
};

/// Checks `Impl <=_R Spec` for every environment behavior enumerated by
/// \p Env; both strategies and the env are cloned per branch.
SimReport checkStrategySimulation(const Strategy &Impl, const Strategy &Spec,
                                  const EventMap &R, const EnvModel &Env,
                                  const SimOptions &Opts = SimOptions());

/// Wraps a successful simulation check into a "Fun"-rule certificate for
/// the statement `Underlay |- Module : Overlay`.
CertPtr makeFunCertificate(const std::string &Underlay,
                           const std::string &Module,
                           const std::string &Overlay, const EventMap &R,
                           const SimReport &Report);

} // namespace ccal

#endif // CCAL_CORE_SIMULATION_H
