//===- core/Calculus.cpp - The concurrent layer calculus -------------------===//

#include "core/Calculus.h"

#include "cert/CertStore.h"
#include "support/Check.h"

#include <algorithm>

using namespace ccal;

std::string CertifiedLayer::atFocus(const std::string &Name,
                                    const std::vector<ThreadId> &Focus) {
  std::string Out = Name + "[";
  if (Focus.size() == 1) {
    Out += std::to_string(Focus[0]);
  } else {
    Out += "{";
    for (size_t I = 0, E = Focus.size(); I != E; ++I) {
      if (I != 0)
        Out += ",";
      Out += std::to_string(Focus[I]);
    }
    Out += "}";
  }
  Out += "]";
  return Out;
}

static std::vector<ThreadId> sortedFocus(std::vector<ThreadId> F) {
  std::sort(F.begin(), F.end());
  return F;
}

/// Coverage of a composed rule: the conjunction over its premises —
/// composition adds no exploration of its own, so a composed certificate
/// covers the schedule space exactly when every premise does.  Keeps a
/// truncated leaf from laundering into a Valid derivation tree.
static void inheritCoverage(RefinementCertificate &C) {
  C.CoverageComplete = true;
  C.Coverage = "inherited from premises";
  for (const auto &P : C.Premises)
    if (!P->CoverageComplete) {
      C.CoverageComplete = false;
      C.Coverage = "premise coverage incomplete: " + P->Coverage;
      return;
    }
}

CertifiedLayer calculus::empty(LayerPtr L, std::vector<ThreadId> Focus) {
  CCAL_CHECK(L != nullptr, "Empty rule needs an interface");
  CertifiedLayer Out;
  Out.Underlay = L;
  Out.Overlay = L;
  Out.ModuleName = "(empty)";
  Out.Focus = sortedFocus(std::move(Focus));
  Out.Relation = "id";
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = "Empty";
  C->Underlay = CertifiedLayer::atFocus(L->name(), Out.Focus);
  C->Overlay = C->Underlay;
  C->Module = Out.ModuleName;
  C->Relation = "id";
  C->Valid = true;
  C->CoverageComplete = true;
  C->Coverage = "axiomatic (no obligations)";
  Out.Cert = C;
  return Out;
}

CertifiedLayer calculus::fun(LayerPtr Underlay, std::string ModuleName,
                             LayerPtr Overlay, std::vector<ThreadId> Focus,
                             const EventMap &R, const SimReport &Report) {
  CCAL_CHECK(Underlay && Overlay, "Fun rule needs both interfaces");
  CCAL_CHECK(Report.Holds, "Fun rule premise failed: simulation not held");
  CertifiedLayer Out;
  Out.Underlay = std::move(Underlay);
  Out.Overlay = std::move(Overlay);
  Out.ModuleName = std::move(ModuleName);
  Out.Focus = sortedFocus(std::move(Focus));
  Out.Relation = R.name();
  auto C = std::make_shared<RefinementCertificate>(*makeFunCertificate(
      CertifiedLayer::atFocus(Out.Underlay->name(), Out.Focus),
      Out.ModuleName,
      CertifiedLayer::atFocus(Out.Overlay->name(), Out.Focus), R, Report));
  Out.Cert = C;
  return Out;
}

CertifiedLayer calculus::fromCertificate(LayerPtr Underlay,
                                         std::string ModuleName,
                                         LayerPtr Overlay,
                                         std::vector<ThreadId> Focus,
                                         std::string Relation,
                                         CertPtr Cert) {
  CCAL_CHECK(Underlay && Overlay && Cert, "leaf layer needs all parts");
  CCAL_CHECK(Cert->Valid, "leaf certificate is invalid");
  CertifiedLayer Out;
  Out.Underlay = std::move(Underlay);
  Out.Overlay = std::move(Overlay);
  Out.ModuleName = std::move(ModuleName);
  Out.Focus = sortedFocus(std::move(Focus));
  Out.Relation = std::move(Relation);
  Out.Cert = std::move(Cert);
  return Out;
}

CertifiedLayer calculus::vcomp(const CertifiedLayer &A,
                               const CertifiedLayer &B) {
  CCAL_CHECK(A.valid() && B.valid(), "Vcomp premises must be valid");
  CCAL_CHECK(A.Overlay->name() == B.Underlay->name(),
             "Vcomp: A's overlay must be B's underlay");
  CCAL_CHECK(A.Focus == B.Focus, "Vcomp: focus sets must coincide");

  CertifiedLayer Out;
  Out.Underlay = A.Underlay;
  Out.Overlay = B.Overlay;
  Out.ModuleName = A.ModuleName + " (+) " + B.ModuleName;
  Out.Focus = A.Focus;
  Out.Relation = A.Relation == "id"
                     ? B.Relation
                     : (B.Relation == "id" ? A.Relation
                                           : A.Relation + " o " + B.Relation);
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = "Vcomp";
  C->Underlay = CertifiedLayer::atFocus(Out.Underlay->name(), Out.Focus);
  C->Overlay = CertifiedLayer::atFocus(Out.Overlay->name(), Out.Focus);
  C->Module = Out.ModuleName;
  C->Relation = Out.Relation;
  C->Premises = {A.Cert, B.Cert};
  inheritCoverage(*C);
  C->Valid = C->CoverageComplete;
  Out.Cert = C;
  return Out;
}

CertifiedLayer calculus::hcomp(const CertifiedLayer &A,
                               const CertifiedLayer &B,
                               LayerPtr MergedOverlay) {
  CCAL_CHECK(A.valid() && B.valid(), "Hcomp premises must be valid");
  CCAL_CHECK(A.Underlay->name() == B.Underlay->name(),
             "Hcomp: same underlay required");
  CCAL_CHECK(A.Focus == B.Focus, "Hcomp: focus sets must coincide");
  CCAL_CHECK(A.Relation == B.Relation,
             "Hcomp: same simulation relation required");
  CCAL_CHECK(MergedOverlay != nullptr, "Hcomp: merged overlay required");
  // The merged overlay must provide everything both overlays provide.
  for (const auto &Side : {A, B})
    for (const std::string &PN : Side.Overlay->primNames())
      CCAL_CHECK(MergedOverlay->provides(PN),
                 "Hcomp: merged overlay misses a primitive");

  CertifiedLayer Out;
  Out.Underlay = A.Underlay;
  Out.Overlay = std::move(MergedOverlay);
  Out.ModuleName = A.ModuleName + " (+) " + B.ModuleName;
  Out.Focus = A.Focus;
  Out.Relation = A.Relation;
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = "Hcomp";
  C->Underlay = CertifiedLayer::atFocus(Out.Underlay->name(), Out.Focus);
  C->Overlay = CertifiedLayer::atFocus(Out.Overlay->name(), Out.Focus);
  C->Module = Out.ModuleName;
  C->Relation = Out.Relation;
  C->Premises = {A.Cert, B.Cert};
  inheritCoverage(*C);
  C->Valid = C->CoverageComplete;
  Out.Cert = C;
  return Out;
}

CertifiedLayer calculus::wk(LayerPtr NewUnderlay, CertPtr UnderlaySim,
                            const CertifiedLayer &Mid, CertPtr OverlaySim,
                            LayerPtr NewOverlay) {
  CCAL_CHECK(Mid.valid(), "Wk premise must be valid");
  CCAL_CHECK(!UnderlaySim || UnderlaySim->Valid,
             "Wk: underlay simulation certificate invalid");
  CCAL_CHECK(!OverlaySim || OverlaySim->Valid,
             "Wk: overlay simulation certificate invalid");

  CertifiedLayer Out = Mid;
  std::string Rel = Mid.Relation;
  if (UnderlaySim) {
    CCAL_CHECK(NewUnderlay != nullptr, "Wk: new underlay required");
    Out.Underlay = NewUnderlay;
    Rel = UnderlaySim->Relation + " o " + Rel;
  }
  if (OverlaySim) {
    CCAL_CHECK(NewOverlay != nullptr, "Wk: new overlay required");
    Out.Overlay = NewOverlay;
    Rel = Rel + " o " + OverlaySim->Relation;
  }
  Out.Relation = Rel;
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = "Wk";
  C->Underlay = CertifiedLayer::atFocus(Out.Underlay->name(), Out.Focus);
  C->Overlay = CertifiedLayer::atFocus(Out.Overlay->name(), Out.Focus);
  C->Module = Out.ModuleName;
  C->Relation = Out.Relation;
  if (UnderlaySim)
    C->Premises.push_back(UnderlaySim);
  C->Premises.push_back(Mid.Cert);
  if (OverlaySim)
    C->Premises.push_back(OverlaySim);
  inheritCoverage(*C);
  C->Valid = C->CoverageComplete;
  Out.Cert = C;
  return Out;
}

CertPtr calculus::CompatReport::cert(const std::string &Interface) const {
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = "Compat";
  C->Underlay = Interface;
  C->Overlay = Interface;
  C->Module = "(guarantees imply relies)";
  C->Relation = "id";
  C->Valid = Holds;
  // The implication check runs over the whole corpus it is given; the
  // corpus itself comes from the premise explorations, whose coverage the
  // composed rule tracks separately.
  C->CoverageComplete = true;
  C->Coverage = "corpus-sampled (guarantee => rely)";
  C->Invariants = Details.size();
  C->Runs = LogsChecked;
  for (const ImplicationReport &I : Details)
    if (!I.Holds)
      C->Notes.push_back("failed: " + I.Premise + " => " + I.Conclusion +
                         " on " + logToString(I.Counterexample));
  return C;
}

namespace {

const char CompatCheckerVersion[] = "compat-v1";

JsonValue compatToPayload(const calculus::CompatReport &R) {
  JsonValue V;
  V.K = JsonValue::Kind::Object;
  V.Fields["holds"] = jsonBool(R.Holds);
  V.Fields["logs_checked"] = jsonUInt(R.LogsChecked);
  std::vector<JsonValue> Details;
  for (const ImplicationReport &I : R.Details)
    Details.push_back(cert::implicationToJson(I));
  V.Fields["details"] = jsonArray(std::move(Details));
  return V;
}

bool compatFromPayload(const JsonValue &V, calculus::CompatReport &R) {
  std::string Error;
  const JsonValue *Details = V.field("details");
  if (!cert::getBool(V, "holds", R.Holds, Error) ||
      !cert::getU64(V, "logs_checked", R.LogsChecked, Error) || !Details ||
      !Details->isArray())
    return false;
  R.Details.clear();
  for (const JsonValue &D : Details->Items) {
    ImplicationReport I;
    if (!cert::implicationFromJson(D, I))
      return false;
    R.Details.push_back(std::move(I));
  }
  return true;
}

calculus::CompatReport checkCompatImpl(const LayerInterface &L,
                                       const std::vector<ThreadId> &FocusA,
                                       const std::vector<ThreadId> &FocusB,
                                       const std::vector<Log> &Corpus) {
  calculus::CompatReport Out;
  const RelyGuarantee &RG = L.rg();
  auto CheckDir = [&](const std::vector<ThreadId> &Members) {
    // For every i in Members: G(i) => R(i): what i guarantees satisfies
    // what the other side relies upon for i.
    for (ThreadId Tid : Members) {
      ImplicationReport R =
          checkImplication(RG.guar(Tid), RG.rely(Tid), Corpus);
      Out.LogsChecked += R.LogsChecked;
      if (!R.Holds)
        Out.Holds = false;
      Out.Details.push_back(std::move(R));
    }
  };
  CheckDir(FocusA);
  CheckDir(FocusB);
  return Out;
}

} // namespace

calculus::CompatReport
calculus::checkCompat(const LayerInterface &L,
                      const std::vector<ThreadId> &FocusA,
                      const std::vector<ThreadId> &FocusB,
                      const std::vector<Log> &Corpus) {
  // Fig. 9 Compat premise: A _|_ B.
  for (ThreadId IdA : FocusA)
    for (ThreadId IdB : FocusB)
      CCAL_CHECK(IdA != IdB, "Compat: focus sets must be disjoint");

  // Load-or-recheck front-end.  The corpus is part of the content address
  // (the check quantifies over exactly those logs), and the rely/guarantee
  // semantics enter through their invariant names via keyAddLayer — the
  // store's documented naming contract.  Composed calculus rules (vcomp,
  // hcomp, pcomp) need no caching of their own: they are pure combinators
  // over premise certificates, so once the leaf checks (Fun/Soundness/
  // Compat) cache, editing one layer re-discharges only that layer's
  // obligations while every other premise loads.
  cert::CertStore *Store = cert::store();
  if (!Store)
    return checkCompatImpl(L, FocusA, FocusB, Corpus);

  cert::CertKey Key;
  Key.Checker = "compat";
  Key.Version = CompatCheckerVersion;
  Key.Desc = "compat over " + L.name();
  Hasher H;
  cert::keyAddLayer(H, L);
  H.u64(FocusA.size());
  for (ThreadId T : FocusA)
    H.u64(T);
  H.u64(FocusB.size());
  for (ThreadId T : FocusB)
    H.u64(T);
  H.u64(Corpus.size());
  for (const Log &Lg : Corpus)
    cert::keyAddLog(H, Lg);
  Key.Hash = H.value();

  CompatReport Report;
  Store->getOrCheck(
      Key,
      [&](const cert::CertStore::Entry &E) {
        return compatFromPayload(E.Payload, Report);
      },
      [&] {
        Report = checkCompatImpl(L, FocusA, FocusB, Corpus);
        cert::CertStore::Entry Out;
        Out.Cert = Report.cert(L.name());
        Out.Payload = compatToPayload(Report);
        return Out;
      });
  return Report;
}

CertifiedLayer calculus::pcomp(const CertifiedLayer &A,
                               const CertifiedLayer &B,
                               const CompatReport &UnderlayCompat,
                               const CompatReport &OverlayCompat) {
  CCAL_CHECK(A.valid() && B.valid(), "Pcomp premises must be valid");
  CCAL_CHECK(A.Underlay->name() == B.Underlay->name() &&
                 A.Overlay->name() == B.Overlay->name(),
             "Pcomp: both layers must connect the same interfaces");
  CCAL_CHECK(A.ModuleName == B.ModuleName,
             "Pcomp: the same module must be verified on both sides");
  CCAL_CHECK(A.Relation == B.Relation,
             "Pcomp: simulation relations must coincide");
  for (ThreadId IdA : A.Focus)
    for (ThreadId IdB : B.Focus)
      CCAL_CHECK(IdA != IdB, "Pcomp: focus sets must be disjoint");
  CCAL_CHECK(UnderlayCompat.Holds && OverlayCompat.Holds,
             "Pcomp: compat side conditions failed");

  CertifiedLayer Out;
  Out.Underlay = A.Underlay;
  Out.Overlay = A.Overlay;
  Out.ModuleName = A.ModuleName;
  Out.Focus = A.Focus;
  Out.Focus.insert(Out.Focus.end(), B.Focus.begin(), B.Focus.end());
  std::sort(Out.Focus.begin(), Out.Focus.end());
  Out.Relation = A.Relation;
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = "Pcomp";
  C->Underlay = CertifiedLayer::atFocus(Out.Underlay->name(), Out.Focus);
  C->Overlay = CertifiedLayer::atFocus(Out.Overlay->name(), Out.Focus);
  C->Module = Out.ModuleName;
  C->Relation = Out.Relation;
  C->Premises = {A.Cert, B.Cert,
                 UnderlayCompat.cert(A.Underlay->name()),
                 OverlayCompat.cert(A.Overlay->name())};
  inheritCoverage(*C);
  C->Valid = C->CoverageComplete;
  Out.Cert = C;
  return Out;
}
