//===- machine/Soundness.h - The outcome-inclusion engine ------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three results of the paper make one statement: every outcome (final log
/// plus client return values) of an implementation machine has an
/// R-related outcome on a specification machine.
///
///   * Thm 2.2 (soundness): from `L'[D] |-R M : L[D]`, for any client
///     program P, every behavior of `P (+) M` over the underlay machine
///     has an R-related behavior of P over the overlay machine, with the
///     same client return values.  The implementation machine runs P
///     *linked with* M (so M's functions are code); the specification
///     machine runs P with M's functions left as `extern` — Prim
///     instructions bound to the overlay's atomic primitives.  Both sides
///     are CompCertX-compiled LAsm (checkContextualRefinement).
///   * Thm 3.1 (multicore linking): the instruction-granularity hardware
///     machine Mx86 refines the query-point layer machine Lx86[D] under
///     the identity relation (checkMulticoreLinking, HardwareMachine.h).
///   * The §5 multithreaded linking check: one multithreaded machine
///     refines another, with an event map on each side
///     (checkThreadedRefinement, threads/ThreadMachine.h; Thm 5.1 in
///     threads/Linking.h).
///
/// All three front ends run one engine, checkOutcomeInclusion, and share
/// one report, one certificate maker and one payload codec, so the
/// fail-closed logic every certificate rests on lives in one place.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_SOUNDNESS_H
#define CCAL_MACHINE_SOUNDNESS_H

#include "core/Certificate.h"
#include "core/Simulation.h"
#include "machine/Explorer.h"
#include "support/Json.h"

namespace ccal {

/// Outcome of an outcome-inclusion check between two machines.
struct ContextualRefinementReport {
  /// True only when every obligation held AND both explorations were
  /// exhaustive (SpecComplete && ImplComplete): a truncated sweep covers a
  /// prefix of the schedule space and discharges nothing.
  bool Holds = false;

  /// Whether each side's exploration ran to completion; when false, the
  /// Counterexample names the budget that truncated it.
  bool SpecComplete = false;
  bool ImplComplete = false;

  /// "exhaustive", or which budget truncated which side — recorded in the
  /// certificate so partial coverage is auditable.
  std::string Coverage;

  std::uint64_t ImplOutcomes = 0; ///< distinct impl outcomes checked
  std::uint64_t SpecOutcomes = 0;
  std::uint64_t ObligationsChecked = 0; ///< distinct ones that matched
  std::uint64_t SchedulesExplored = 0;
  std::uint64_t StatesExplored = 0;
  std::string Counterexample;
};

/// The specification outcomes of an inclusion check, as a trie of their
/// R-mapped logs: an edge is one mapped event, and the node a log ends at
/// holds the returns its outcomes reached.  A lookup steps the trie with
/// each event R keeps, comparing events structurally; it accepts on no
/// hash and builds no mapped log.
class OutcomeTrie {
public:
  /// Adds the outcome with log \p L mapped through \p R and \p Returns.
  void insert(const Log &L, const EventMap &R, const ReturnMap &Returns);
  /// True when that outcome was added.
  bool contains(const Log &L, const EventMap &R,
                const ReturnMap &Returns) const;

private:
  static constexpr std::uint32_t NoNode = ~std::uint32_t(0);
  struct Node {
    std::vector<std::pair<Event, std::uint32_t>> Next; ///< edge, node index
    std::vector<ReturnMap> Ends;
  };
  std::uint32_t next(std::uint32_t N, const Event &E) const;
  std::vector<Node> Nodes = std::vector<Node>(1); ///< Nodes[0] is the root
};

namespace detail {

/// The engine's fail-closed gate for one side's exploration: true when
/// \p Res is a complete sweep without violation (then SpecComplete or
/// ImplComplete is set); otherwise false, with Counterexample (and, for a
/// truncation, Coverage) naming the violation or the budget that cut the
/// side short.
bool sideComplete(ContextualRefinementReport &Report, bool SpecSide,
                  const ExploreResult &Res);

/// The counterexample for an implementation outcome whose R-mapped log
/// matches no specification outcome.
std::string unmatchedOutcome(const Log &ImplLog, const Log &Mapped);

/// Publishes one check's aggregates into the obs registry; the Explorer
/// has already published the per-exploration counters underneath.
void publishRefinementMetrics(const ContextualRefinementReport &Report);

template <typename ImplM, typename SpecM>
void runOutcomeInclusion(ContextualRefinementReport &Report,
                         const ImplM &ImplRoot, const SpecM &SpecRoot,
                         const EventMap &RImpl, const EventMap &RSpec,
                         const GenericExploreOptions<ImplM> &ImplOpts,
                         const GenericExploreOptions<SpecM> &SpecOpts) {
  ExploreResult SpecRes = [&] {
    obs::Span SpecSpan("refine.spec_explore", "refine");
    return exploreGeneric(SpecRoot, SpecOpts);
  }();
  if (!sideComplete(Report, /*SpecSide=*/true, SpecRes))
    return;
  OutcomeTrie SpecTrie;
  for (const Outcome &O : SpecRes.Outcomes)
    SpecTrie.insert(O.FinalLog, RSpec, O.Returns);

  // Stream implementation outcomes through the matcher instead of storing
  // them: large schedule spaces would not fit in memory otherwise.  The
  // Explorer counts the distinct outcomes checked and those that matched.
  GenericExploreOptions<ImplM> Stream = ImplOpts;
  Stream.OnOutcome = [&](const Outcome &O) -> std::string {
    if (!SpecTrie.contains(O.FinalLog, RImpl, O.Returns))
      return unmatchedOutcome(O.FinalLog, RImpl.apply(O.FinalLog));
    return "";
  };
  ExploreResult ImplRes = [&] {
    obs::Span ImplSpan("refine.impl_explore", "refine");
    return exploreGeneric(ImplRoot, Stream);
  }();
  Report.ImplOutcomes = ImplRes.DistinctOutcomes;
  Report.SpecOutcomes = SpecRes.Outcomes.size();
  Report.SchedulesExplored =
      ImplRes.SchedulesExplored + SpecRes.SchedulesExplored;
  Report.StatesExplored = ImplRes.StatesExplored + SpecRes.StatesExplored;
  Report.ObligationsChecked = ImplRes.AcceptedOutcomes;
  if (!sideComplete(Report, /*SpecSide=*/false, ImplRes))
    return;
  Report.Coverage = "exhaustive";
  Report.Holds = true;
}

} // namespace detail

/// The outcome-inclusion engine: checks `[[ImplRoot]] <= [[SpecRoot]]`,
/// i.e. that every implementation outcome, its log mapped through
/// \p RImpl, equals some specification outcome mapped through \p RSpec,
/// with equal client returns.  The spec side is explored and stored
/// first; implementation outcomes are streamed through OnOutcome, once
/// per terminal schedule, and matched as they arrive.  ImplOutcomes and
/// ObligationsChecked are the Explorer's fingerprint counts of the
/// distinct outcomes checked and of those that matched (a collision can
/// only under-count them).  A violation or truncation on either side fails
/// closed: Holds stays false and the report names the cause.
template <typename ImplM, typename SpecM>
ContextualRefinementReport
checkOutcomeInclusion(const ImplM &ImplRoot, const SpecM &SpecRoot,
                      const EventMap &RImpl, const EventMap &RSpec,
                      const GenericExploreOptions<ImplM> &ImplOpts,
                      const GenericExploreOptions<SpecM> &SpecOpts) {
  obs::Span CheckSpan("refine.check", "refine");
  ContextualRefinementReport Report;
  detail::runOutcomeInclusion(Report, ImplRoot, SpecRoot, RImpl, RSpec,
                              ImplOpts, SpecOpts);
  detail::publishRefinementMetrics(Report);
  return Report;
}

/// Checks `[[Impl]] <=_R [[Spec]]` (Thm 2.2): every implementation outcome
/// has a specification outcome with the R-mapped log and equal client
/// returns.  Served from the certificate store when one is configured.
ContextualRefinementReport
checkContextualRefinement(MachineConfigPtr Impl, MachineConfigPtr Spec,
                          const EventMap &R, const ExploreOptions &ImplOpts,
                          const ExploreOptions &SpecOpts);

/// Wraps a report into a certificate for the given rule name
/// ("Soundness", "MulticoreLink", "MultithreadLink", "LogLift", ...) and
/// relation name.
CertPtr makeMachineCertificate(const std::string &Rule,
                               const std::string &Underlay,
                               const std::string &Module,
                               const std::string &Overlay,
                               const std::string &Relation,
                               const ContextualRefinementReport &Report);

/// The certificate-store payload of a report: its verdict, coverage,
/// evidence counters and counterexample.  refinementFromPayload is its
/// strict inverse; false on any missing or mistyped field, or a negative
/// counter.
JsonValue refinementToPayload(const ContextualRefinementReport &R);
bool refinementFromPayload(const JsonValue &V,
                           ContextualRefinementReport &R);

} // namespace ccal

#endif // CCAL_MACHINE_SOUNDNESS_H
