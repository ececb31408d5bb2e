//===- objects/Harness.cpp - Object layer refinement harness -----------------===//

#include "objects/Harness.h"

#include "compcertx/Linker.h"
#include "support/Check.h"

using namespace ccal;

MachineConfigPtr ObjectHarness::implConfig() const {
  CCAL_CHECK(Client != nullptr, "harness needs a client module");
  std::vector<const ClightModule *> All;
  All.push_back(Client);
  for (const ClightModule *M : Modules)
    All.push_back(M);
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = ObjectName + ".impl";
  Cfg->Layer = Underlay;
  Cfg->Program = compileAndLink(ObjectName + ".impl.lasm", All);
  Cfg->Work = Work;
  Cfg->Model = ImplModel;
  return Cfg;
}

MachineConfigPtr ObjectHarness::specConfig() const {
  CCAL_CHECK(Client != nullptr, "harness needs a client module");
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = ObjectName + ".spec";
  Cfg->Layer = Overlay;
  Cfg->Program = compileAndLink(ObjectName + ".spec.lasm", {Client});
  Cfg->Work = Work;
  return Cfg;
}

HarnessOutcome ccal::runObjectHarness(const ObjectHarness &H) {
  HarnessOutcome Out;
  Out.Report = checkContextualRefinement(H.implConfig(), H.specConfig(), H.R,
                                         H.ImplOpts, H.SpecOpts);
  CertPtr Cert = makeMachineCertificate(
      "LogLift", CertifiedLayer::atFocus(H.Underlay->name(), focusOf(H)),
      H.ObjectName, CertifiedLayer::atFocus(H.Overlay->name(), focusOf(H)),
      H.R.name(), Out.Report);
  if (Out.Report.Holds)
    Out.Layer = calculus::fromCertificate(H.Underlay, H.ObjectName,
                                          H.Overlay, focusOf(H),
                                          H.R.name(), Cert);
  else
    Out.Layer.Cert = Cert;

  for (const ClightModule *M : H.Modules)
    Out.ImplLoC += moduleLoC(*M);
  Out.SpecPrimCount = H.Overlay->primNames().size();
  return Out;
}

std::vector<ThreadId> ccal::focusOf(const ObjectHarness &H) {
  std::vector<ThreadId> Out;
  for (const auto &[Tid, Items] : H.Work) {
    (void)Items;
    Out.push_back(Tid);
  }
  return Out;
}

namespace {

std::uint64_t stmtCount(const Stmt &S) {
  std::uint64_t N = 1;
  for (const StmtPtr &C : S.Body)
    N += stmtCount(*C);
  if (S.Then)
    N += stmtCount(*S.Then);
  if (S.Else)
    N += stmtCount(*S.Else);
  return N;
}

} // namespace

std::uint64_t ccal::moduleLoC(const ClightModule &M) {
  std::uint64_t N = 0;
  for (const GlobalDecl &G : M.Globals) {
    (void)G;
    ++N;
  }
  for (const FuncDecl &F : M.Funcs) {
    ++N; // signature
    if (F.Body)
      N += stmtCount(*F.Body);
  }
  return N;
}
