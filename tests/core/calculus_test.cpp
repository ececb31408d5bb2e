//===- tests/core/calculus_test.cpp - Fig. 9 layer calculus tests -------------===//

#include "core/Calculus.h"

#include "core/EnvContext.h"
#include "tests/core/TestStrategies.h"

#include <gtest/gtest.h>

using namespace ccal;
using namespace ccal::testutil;
using namespace ccal::calculus;

namespace {

LayerPtr makeNamedLayer(const std::string &Name) {
  return std::make_shared<LayerInterface>(Name);
}

/// A valid leaf layer via a real simulation check.
CertifiedLayer makeLeaf(const std::string &Under, const std::string &Module,
                        const std::string &Over,
                        std::vector<ThreadId> Focus) {
  auto Impl = makeAtomicCallStrategy(Focus[0], "hold", {}, [](const Log &) {
    return std::optional<std::int64_t>(0);
  });
  auto Spec = makeAtomicCallStrategy(Focus[0], "acq", {}, [](const Log &) {
    return std::optional<std::int64_t>(0);
  });
  EventMap R1 = makeR1();
  auto Env = makeNullEnv();
  SimReport Rep = checkStrategySimulation(*Impl, *Spec, R1, *Env);
  return fun(makeNamedLayer(Under), Module, makeNamedLayer(Over),
             std::move(Focus), R1, Rep);
}

} // namespace

TEST(CalculusTest, FocusRendering) {
  EXPECT_EQ(CertifiedLayer::atFocus("L0", {1}), "L0[1]");
  EXPECT_EQ(CertifiedLayer::atFocus("L0", {2, 1}), "L0[{2,1}]");
}

TEST(CalculusTest, EmptyRule) {
  CertifiedLayer E = empty(makeNamedLayer("L0"), {1});
  EXPECT_TRUE(E.valid());
  EXPECT_EQ(E.Cert->Rule, "Empty");
  EXPECT_EQ(E.Underlay->name(), E.Overlay->name());
}

TEST(CalculusTest, FunRuleWrapsSimulation) {
  CertifiedLayer L = makeLeaf("L0", "M1", "L1", {1});
  EXPECT_TRUE(L.valid());
  EXPECT_EQ(L.Cert->Rule, "Fun");
  EXPECT_EQ(L.Relation, "R1");
}

TEST(CalculusTest, VcompComposesRelationsAndCounts) {
  CertifiedLayer A = makeLeaf("L0", "M1", "L1", {1});
  CertifiedLayer B = makeLeaf("L1", "M2", "L2", {1});
  CertifiedLayer C = vcomp(A, B);
  EXPECT_TRUE(C.valid());
  EXPECT_EQ(C.Underlay->name(), "L0");
  EXPECT_EQ(C.Overlay->name(), "L2");
  EXPECT_EQ(C.ModuleName, "M1 (+) M2");
  EXPECT_EQ(C.Relation, "R1 o R1");
  EXPECT_EQ(C.Cert->Premises.size(), 2u);
  EXPECT_EQ(C.Cert->totalObligations(),
            A.Cert->totalObligations() + B.Cert->totalObligations());
}

TEST(CalculusTest, VcompRejectsMismatchedInterfaces) {
  CertifiedLayer A = makeLeaf("L0", "M1", "L1", {1});
  CertifiedLayer B = makeLeaf("L9", "M2", "L2", {1});
  EXPECT_DEATH(vcomp(A, B), "Vcomp");
}

TEST(CalculusTest, VcompRejectsMismatchedFocus) {
  CertifiedLayer A = makeLeaf("L0", "M1", "L1", {1});
  CertifiedLayer B = makeLeaf("L1", "M2", "L2", {2});
  EXPECT_DEATH(vcomp(A, B), "focus");
}

TEST(CalculusTest, HcompMergesModules) {
  CertifiedLayer A = makeLeaf("L0", "Macq", "L1a", {1});
  CertifiedLayer B = makeLeaf("L0", "Mrel", "L1b", {1});
  auto La = makeNamedLayer("L1a");
  auto Lb = makeNamedLayer("L1b");
  auto Merged = LayerInterface::merge("L1", *La, *Lb);
  CertifiedLayer C = hcomp(A, B, Merged);
  EXPECT_TRUE(C.valid());
  EXPECT_EQ(C.ModuleName, "Macq (+) Mrel");
  EXPECT_EQ(C.Cert->Rule, "Hcomp");
}

TEST(CalculusTest, PcompUnionsFocusSets) {
  CertifiedLayer A = makeLeaf("L0", "M1", "L1", {1});
  CertifiedLayer B = makeLeaf("L0", "M1", "L1", {2});

  std::vector<Log> Corpus = {{}, {Event(1, KindId("acq"))}};
  LayerInterface L0("L0");
  CompatReport Under = checkCompat(L0, {1}, {2}, Corpus);
  CompatReport Over = checkCompat(L0, {1}, {2}, Corpus);
  ASSERT_TRUE(Under.Holds);

  CertifiedLayer C = pcomp(A, B, Under, Over);
  EXPECT_TRUE(C.valid());
  EXPECT_EQ(C.Focus, (std::vector<ThreadId>{1, 2}));
  EXPECT_EQ(C.Cert->Rule, "Pcomp");
  EXPECT_EQ(C.Cert->Premises.size(), 4u); // two layers + two compat certs
}

TEST(CalculusTest, PcompRejectsOverlappingFocus) {
  CertifiedLayer A = makeLeaf("L0", "M1", "L1", {1});
  CertifiedLayer B = makeLeaf("L0", "M1", "L1", {1});
  std::vector<Log> Corpus = {{}};
  LayerInterface L0("L0");
  EXPECT_DEATH(checkCompat(L0, {1}, {1}, Corpus), "disjoint");
  (void)A;
  (void)B;
}

TEST(CalculusTest, CompatDetectsGuaranteeRelyGap) {
  // G says "log has an acq"; R demands "log has a rel": the implication
  // fails on a log with acq but no rel.
  LayerInterface L("L");
  L.rg().Guar.emplace(
      1, LogInvariant{"has-acq", [](const Log &Lg) {
                        return logCountKind(Lg, KindId("acq")) > 0;
                      }});
  L.rg().Rely.emplace(
      1, LogInvariant{"has-rel", [](const Log &Lg) {
                        return logCountKind(Lg, KindId("rel")) > 0;
                      }});
  std::vector<Log> Corpus = {{Event(1, KindId("acq"))}};
  CompatReport Rep = checkCompat(L, {1}, {2}, Corpus);
  EXPECT_FALSE(Rep.Holds);
  CertPtr C = Rep.cert("L");
  EXPECT_FALSE(C->Valid);
  EXPECT_FALSE(C->Notes.empty());
}

TEST(CalculusTest, WeakeningComposesRelations) {
  CertifiedLayer Mid = makeLeaf("L1'", "M", "L2'", {1});
  auto PreCert = std::make_shared<RefinementCertificate>();
  PreCert->Rule = "InterfaceSim";
  PreCert->Relation = "Rpre";
  PreCert->Valid = true;
  PreCert->CoverageComplete = true;
  PreCert->Coverage = "exhaustive";
  auto PostCert = std::make_shared<RefinementCertificate>();
  PostCert->Rule = "InterfaceSim";
  PostCert->Relation = "Rpost";
  PostCert->Valid = true;
  PostCert->CoverageComplete = true;
  PostCert->Coverage = "exhaustive";

  CertifiedLayer W = wk(makeNamedLayer("L1"), PreCert, Mid, PostCert,
                        makeNamedLayer("L2"));
  EXPECT_TRUE(W.valid());
  EXPECT_EQ(W.Underlay->name(), "L1");
  EXPECT_EQ(W.Overlay->name(), "L2");
  EXPECT_EQ(W.Relation, "Rpre o R1 o Rpost");
  EXPECT_EQ(W.Cert->Premises.size(), 3u);
}

TEST(CalculusTest, DerivationTreeRendersAllRules) {
  CertifiedLayer A = makeLeaf("L0", "M1", "L1", {1});
  CertifiedLayer B = makeLeaf("L1", "M2", "L2", {1});
  CertifiedLayer C = vcomp(A, B);
  std::string Tree = C.Cert->tree();
  EXPECT_NE(Tree.find("[Vcomp]"), std::string::npos);
  EXPECT_NE(Tree.find("[Fun]"), std::string::npos);
  EXPECT_NE(Tree.find("L0[1]"), std::string::npos);
}

TEST(RelyGuaranteeTest, ConjDisjAndDefaults) {
  LogInvariant HasAcq{"has-acq", [](const Log &L) {
                        return logCountKind(L, KindId("acq")) > 0;
                      }};
  LogInvariant HasRel{"has-rel", [](const Log &L) {
                        return logCountKind(L, KindId("rel")) > 0;
                      }};
  Log Both = {Event(1, KindId("acq")), Event(1, KindId("rel"))};
  Log OnlyAcq = {Event(1, KindId("acq"))};
  EXPECT_TRUE(LogInvariant::conj(HasAcq, HasRel).Holds(Both));
  EXPECT_FALSE(LogInvariant::conj(HasAcq, HasRel).Holds(OnlyAcq));
  EXPECT_TRUE(LogInvariant::disj(HasAcq, HasRel).Holds(OnlyAcq));

  RelyGuarantee RG;
  EXPECT_TRUE(RG.rely(42).Holds(Both)); // missing participant: top
}

TEST(RelyGuaranteeTest, ComposeIntersectsRelyUnionsGuar) {
  LogInvariant HasAcq{"has-acq", [](const Log &L) {
                        return logCountKind(L, KindId("acq")) > 0;
                      }};
  LogInvariant HasRel{"has-rel", [](const Log &L) {
                        return logCountKind(L, KindId("rel")) > 0;
                      }};
  RelyGuarantee A, B;
  A.Rely.emplace(1, HasAcq);
  B.Rely.emplace(1, HasRel);
  A.Guar.emplace(1, HasAcq);
  B.Guar.emplace(1, HasRel);
  RelyGuarantee C = RelyGuarantee::compose(A, B, {1}, {2});

  Log OnlyAcq = {Event(1, KindId("acq"))};
  EXPECT_FALSE(C.rely(1).Holds(OnlyAcq)); // intersection
  EXPECT_TRUE(C.guar(1).Holds(OnlyAcq));  // union
}

TEST(LayerInterfaceTest, MergeUnionsPrimitives) {
  LayerInterface A("La"), B("Lb");
  A.addShared("acq", [](const PrimCall &) -> std::optional<PrimResult> {
    return PrimResult{};
  });
  B.addPrivate("get_tid", [](const PrimCall &) -> std::optional<PrimResult> {
    return PrimResult{};
  });
  auto M = LayerInterface::merge("Lab", A, B);
  EXPECT_TRUE(M->provides("acq"));
  EXPECT_TRUE(M->provides("get_tid"));
  EXPECT_TRUE(M->lookup("acq")->Shared);
  EXPECT_FALSE(M->lookup("get_tid")->Shared);
  EXPECT_EQ(M->primNames(), (std::vector<std::string>{"acq", "get_tid"}));
}

TEST(LayerInterfaceTest, MergeRejectsClashes) {
  LayerInterface A("La"), B("Lb");
  auto Sem = [](const PrimCall &) -> std::optional<PrimResult> {
    return PrimResult{};
  };
  A.addShared("acq", Sem);
  B.addShared("acq", Sem);
  EXPECT_DEATH(LayerInterface::merge("Lab", A, B), "disjoint");
}

TEST(LayerInterfaceTest, DuplicatePrimitiveAborts) {
  LayerInterface A("La");
  auto Sem = [](const PrimCall &) -> std::optional<PrimResult> {
    return PrimResult{};
  };
  A.addShared("x", Sem);
  EXPECT_DEATH(A.addShared("x", Sem), "duplicate");
}

TEST(CertificateTest, TotalsAggregateRecursively) {
  auto Leaf1 = std::make_shared<RefinementCertificate>();
  Leaf1->Obligations = 3;
  Leaf1->Runs = 2;
  Leaf1->Invariants = 1;
  auto Leaf2 = std::make_shared<RefinementCertificate>();
  Leaf2->Obligations = 4;
  auto Root = std::make_shared<RefinementCertificate>();
  Root->Obligations = 1;
  Root->Premises = {Leaf1, Leaf2};
  EXPECT_EQ(Root->totalObligations(), 8u);
  EXPECT_EQ(Root->totalRuns(), 2u);
  EXPECT_EQ(Root->totalInvariants(), 1u);
}

TEST(EnvContextTest, FairReturnBoundForcesProgress) {
  // With a fairness bound of 1, the second consecutive "return control"
  // is forbidden while a live participant exists.
  std::map<ThreadId, std::shared_ptr<Strategy>> Parts;
  Parts.emplace(2, std::shared_ptr<Strategy>(makeAtomicCallStrategy(
                       2, "f", {},
                       [](const Log &) { return std::optional<std::int64_t>(0); })));
  auto E = makeStrategyEnv(std::move(Parts), /*MaxEnvMoves=*/2,
                           /*FairReturnBound=*/1);
  Log L;
  auto C0 = E->choices(L);
  ASSERT_FALSE(C0.empty());
  ASSERT_TRUE(C0[0].ReturnsControl);
  E->advance(0, L); // one return consumed
  auto C1 = E->choices(L);
  // Now progress is forced: no return-control choice offered.
  for (const EnvChoice &C : C1)
    EXPECT_FALSE(C.ReturnsControl);
}
