//===- machine/Soundness.cpp - The outcome-inclusion engine -----------------===//

#include "machine/Soundness.h"

#include "cert/CertKeys.h"
#include "cert/CertStore.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Text.h"

using namespace ccal;

namespace {

/// Bump when this checker's semantics or payload layout change: stored
/// certificates from the old format must miss, not lie.  v2 dropped the
/// implementation corpus from the payload.
const char RefineCheckerVersion[] = "refine-v2";

} // namespace

bool ccal::detail::sideComplete(ContextualRefinementReport &Report,
                                bool SpecSide, const ExploreResult &Res) {
  if (!Res.Ok) {
    Report.Counterexample =
        (SpecSide ? "specification machine violation: "
                  : "implementation machine violation: ") +
        Res.Violation;
    return false;
  }
  if (!Res.Complete) {
    if (SpecSide) {
      // A truncated spec sweep is worse than inconclusive: a capped
      // outcome set (MaxStoredOutcomes) makes genuinely-refining
      // implementation outcomes look like counterexamples.  Fail closed
      // before comparing.
      Report.Coverage = "spec exploration truncated: " + Res.Truncation;
      Report.Counterexample =
          "specification exploration is incomplete (" + Res.Truncation +
          "): the spec outcome set may be silently capped, so any mismatch "
          "below would be a false counterexample and any match proves "
          "nothing; raise the truncating budget and re-run";
    } else {
      // Obligations cover only the explored prefix of a truncated sweep;
      // the refinement statement quantifies over every schedule, so Holds
      // must stay false.
      Report.Coverage = "impl exploration truncated: " + Res.Truncation;
      Report.Counterexample =
          "implementation exploration is incomplete (" + Res.Truncation +
          "): only a prefix of the schedule space was matched; raise the "
          "truncating budget and re-run";
    }
    return false;
  }
  (SpecSide ? Report.SpecComplete : Report.ImplComplete) = true;
  return true;
}

void OutcomeTrie::insert(const Log &L, const EventMap &R,
                         const ReturnMap &Returns) {
  std::uint32_t N = 0;
  for (const Event &E : L) {
    std::optional<Event> M = R.map(E);
    if (!M)
      continue;
    std::uint32_t To = next(N, *M);
    if (To == NoNode) {
      To = static_cast<std::uint32_t>(Nodes.size());
      Nodes[N].Next.emplace_back(std::move(*M), To);
      Nodes.emplace_back();
    }
    N = To;
  }
  std::vector<ReturnMap> &Ends = Nodes[N].Ends;
  if (std::find(Ends.begin(), Ends.end(), Returns) == Ends.end())
    Ends.push_back(Returns);
}

bool OutcomeTrie::contains(const Log &L, const EventMap &R,
                           const ReturnMap &Returns) const {
  std::uint32_t N = 0;
  for (const Event &E : L)
    if (std::optional<Event> M = R.map(E))
      if ((N = next(N, *M)) == NoNode)
        return false;
  const std::vector<ReturnMap> &Ends = Nodes[N].Ends;
  return std::find(Ends.begin(), Ends.end(), Returns) != Ends.end();
}

std::uint32_t OutcomeTrie::next(std::uint32_t N, const Event &E) const {
  for (const auto &[Edge, To] : Nodes[N].Next)
    if (Edge == E)
      return To;
  return NoNode;
}

std::string ccal::detail::unmatchedOutcome(const Log &ImplLog,
                                           const Log &Mapped) {
  return strFormat("no specification behavior matches implementation "
                   "outcome\n  impl log:   %s\n  mapped (R): %s",
                   logToString(ImplLog).c_str(),
                   logToString(Mapped).c_str());
}

void ccal::detail::publishRefinementMetrics(
    const ContextualRefinementReport &Report) {
  if (!obs::enabled())
    return;
  obs::counterAdd("refine.checks", 1);
  obs::counterAdd("refine.obligations_discharged",
                  Report.ObligationsChecked);
  obs::counterAdd("refine.impl_outcomes", Report.ImplOutcomes);
  obs::counterAdd("refine.spec_outcomes", Report.SpecOutcomes);
  if (Report.Holds)
    obs::counterAdd("refine.holds", 1);
  if (!Report.SpecComplete || !Report.ImplComplete) {
    obs::counterAdd("refine.truncated", 1);
    obs::traceInstant("refine.truncation: " + Report.Coverage, "refine");
  }
}

JsonValue ccal::refinementToPayload(const ContextualRefinementReport &R) {
  JsonValue V;
  V.K = JsonValue::Kind::Object;
  V.Fields["holds"] = jsonBool(R.Holds);
  V.Fields["spec_complete"] = jsonBool(R.SpecComplete);
  V.Fields["impl_complete"] = jsonBool(R.ImplComplete);
  V.Fields["coverage"] = jsonStr(R.Coverage);
  V.Fields["impl_outcomes"] = jsonUInt(R.ImplOutcomes);
  V.Fields["spec_outcomes"] = jsonUInt(R.SpecOutcomes);
  V.Fields["obligations"] = jsonUInt(R.ObligationsChecked);
  V.Fields["schedules"] = jsonUInt(R.SchedulesExplored);
  V.Fields["states"] = jsonUInt(R.StatesExplored);
  V.Fields["counterexample"] = jsonStr(R.Counterexample);
  return V;
}

bool ccal::refinementFromPayload(const JsonValue &V,
                                 ContextualRefinementReport &R) {
  std::string Error;
  return cert::getBool(V, "holds", R.Holds, Error) &&
         cert::getBool(V, "spec_complete", R.SpecComplete, Error) &&
         cert::getBool(V, "impl_complete", R.ImplComplete, Error) &&
         cert::getStr(V, "coverage", R.Coverage, Error) &&
         cert::getU64(V, "impl_outcomes", R.ImplOutcomes, Error) &&
         cert::getU64(V, "spec_outcomes", R.SpecOutcomes, Error) &&
         cert::getU64(V, "obligations", R.ObligationsChecked, Error) &&
         cert::getU64(V, "schedules", R.SchedulesExplored, Error) &&
         cert::getU64(V, "states", R.StatesExplored, Error) &&
         cert::getStr(V, "counterexample", R.Counterexample, Error);
}

ContextualRefinementReport ccal::checkContextualRefinement(
    MachineConfigPtr Impl, MachineConfigPtr Spec, const EventMap &R,
    const ExploreOptions &ImplOpts, const ExploreOptions &SpecOpts) {
  auto Check = [&] {
    return checkOutcomeInclusion(MultiCoreMachine(Impl),
                                 MultiCoreMachine(Spec), R,
                                 EventMap::identity(), ImplOpts, SpecOpts);
  };

  // Load-or-recheck front-end.  Uncacheable checks — store disabled, or
  // an anonymous invariant the key cannot see — run exactly as before.
  cert::CertStore *Store = cert::store();
  if (!Store || !cert::cacheableOptions(ImplOpts) ||
      !cert::cacheableOptions(SpecOpts))
    return Check();

  cert::CertKey Key;
  Key.Checker = "refine";
  Key.Version = RefineCheckerVersion;
  Key.Desc = Impl->Name + " refines " + Spec->Name + " via " + R.name();
  Hasher H;
  cert::keyAddMachineConfig(H, *Impl);
  cert::keyAddMachineConfig(H, *Spec);
  H.str(R.name());
  cert::keyAddExploreOptions(H, ImplOpts);
  cert::keyAddExploreOptions(H, SpecOpts);
  Key.Hash = H.value();

  ContextualRefinementReport Report;
  bool Hit = Store->getOrCheck(
      Key,
      [&](const cert::CertStore::Entry &E) {
        return refinementFromPayload(E.Payload, Report);
      },
      [&] {
        Report = Check();
        cert::CertStore::Entry Out;
        Out.Cert = makeMachineCertificate("Soundness", Impl->Layer->name(),
                                          Impl->Name, Spec->Layer->name(),
                                          R.name(), Report);
        Out.Payload = refinementToPayload(Report);
        return Out;
      });
  // A hit re-runs nothing: only the check-happened counter moves, never
  // the exploration counters (which is what the warm-cache CI asserts).
  if (Hit && obs::enabled())
    obs::counterAdd("refine.checks", 1);
  return Report;
}

CertPtr ccal::makeMachineCertificate(
    const std::string &Rule, const std::string &Underlay,
    const std::string &Module, const std::string &Overlay,
    const std::string &Relation, const ContextualRefinementReport &Report) {
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = Rule;
  C->Underlay = Underlay;
  C->Module = Module;
  C->Overlay = Overlay;
  C->Relation = Relation;
  // Belt and braces: the checker already refuses Holds on a truncated
  // sweep, but a certificate must be impossible to mint Valid from one
  // even if a future checker forgets.
  C->CoverageComplete = Report.SpecComplete && Report.ImplComplete;
  C->Coverage = Report.Coverage;
  C->Valid = Report.Holds && C->CoverageComplete;
  C->Obligations = Report.ObligationsChecked;
  C->Runs = Report.SchedulesExplored;
  C->Moves = Report.StatesExplored;
  if (!Report.Holds)
    C->Notes.push_back(Report.Counterexample);
  return C;
}
