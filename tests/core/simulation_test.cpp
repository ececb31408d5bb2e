//===- tests/core/simulation_test.cpp - Def 2.1 checker tests -----------------===//

#include "core/Simulation.h"

#include "core/EnvContext.h"
#include "tests/core/TestStrategies.h"

#include <gtest/gtest.h>

using namespace ccal;
using namespace ccal::testutil;

namespace {

/// A scripted environment with \p Lead leading batches and then enough
/// empty return-control entries.
std::unique_ptr<EnvModel> makeEnv(std::vector<EnvChoice> Lead,
                                  unsigned TrailingReturns) {
  for (unsigned I = 0; I != TrailingReturns; ++I) {
    EnvChoice C;
    C.ReturnsControl = true;
    Lead.push_back(C);
  }
  return makeScriptedEnv(std::move(Lead));
}

std::unique_ptr<Strategy> makeAcqRelImpl(ThreadId Tid) {
  std::vector<std::unique_ptr<Strategy>> Seq;
  Seq.push_back(makeAcqImplStrategy(Tid));
  Seq.push_back(makeRelImplStrategy(Tid));
  return makeSeqStrategy("impl:acq;rel", std::move(Seq));
}

std::unique_ptr<Strategy> makeAcqRelSpec(ThreadId Tid) {
  std::vector<std::unique_ptr<Strategy>> Seq;
  Seq.push_back(makeAcqSpecStrategy(Tid));
  Seq.push_back(makeRelSpecStrategy(Tid));
  return makeSeqStrategy("spec:acq;rel", std::move(Seq));
}

} // namespace

TEST(EventMapTest, IdentityAndCompose) {
  EventMap Id = EventMap::identity();
  Event E(1, KindId("x"), {2});
  EXPECT_EQ(Id.map(E), E);

  EventMap R1 = makeR1();
  EventMap Composed = EventMap::compose(Id, R1);
  EXPECT_EQ(Composed.map(Event(1, KindId("hold"))), Event(1, KindId("acq")));
  EXPECT_FALSE(Composed.map(Event(1, KindId("get_n"))).has_value());
  EXPECT_EQ(Composed.name(), "R1");
}

TEST(EventMapTest, ApplyErasesAndMaps) {
  EventMap R1 = makeR1();
  Log Impl = {Event(1, KindId("FAI_t")), Event(1, KindId("get_n")),
              Event(1, KindId("hold")), Event(1, KindId("f")),
              Event(1, KindId("inc_n"))};
  Log Expect = {Event(1, KindId("acq")), Event(1, KindId("f")),
                Event(1, KindId("rel"))};
  EXPECT_EQ(R1.apply(Impl), Expect);
}

TEST(SimulationTest, UncontendedAcqRelHolds) {
  // No environment: thread 1 immediately acquires.  The Fun-rule premise
  // L0[1] |- acq : phi'_acq of §2, specialized to an empty context.
  auto Impl = makeAcqRelImpl(1);
  auto Spec = makeAcqRelSpec(1);
  EventMap R1 = makeR1();
  auto Env = makeNullEnv();
  SimReport Rep = checkStrategySimulation(*Impl, *Spec, R1, *Env);
  EXPECT_TRUE(Rep.Holds) << Rep.Counterexample;
  EXPECT_EQ(Rep.Obligations, 2u); // hold->acq and inc_n->rel matched
  EXPECT_EQ(Rep.Runs, 1u);
}

TEST(SimulationTest, ContendedAcqSpinsThenHolds) {
  // The environment (thread 2) fetched the first ticket and holds the
  // lock; it releases at the second query point — a rely-respecting
  // context, under which the spin loop terminates and the simulation
  // holds.
  std::vector<EnvChoice> Lead(2);
  Lead[0].Events = {Event(2, KindId("FAI_t")), Event(2, KindId("hold"))};
  Lead[0].ReturnsControl = true; // control back to thread 1: it FAIs, spins
  Lead[1].Events = {Event(2, KindId("inc_n"))};
  Lead[1].ReturnsControl = true;
  auto Env = makeEnv(std::move(Lead), 8);

  auto Impl = makeAcqRelImpl(1);
  auto Spec = makeAcqRelSpec(1);
  EventMap R1 = makeR1();
  SimOptions Opts;
  Opts.MaxMoves = 32;
  SimReport Rep = checkStrategySimulation(*Impl, *Spec, R1, *Env, Opts);
  EXPECT_TRUE(Rep.Holds) << Rep.Counterexample;
  EXPECT_GE(Rep.Moves, 4u); // at least one spin iteration happened
}

TEST(SimulationTest, UnfairEnvironmentDivergesAndFails) {
  // If the environment never releases (violating the rely condition that
  // held locks are eventually released), the spin diverges and the checker
  // reports it — the reason L'1[i].R must include definite release (§2).
  std::vector<EnvChoice> Lead(1);
  Lead[0].Events = {Event(2, KindId("FAI_t")), Event(2, KindId("hold"))};
  Lead[0].ReturnsControl = true;
  auto Env = makeEnv(std::move(Lead), 64);

  auto Impl = makeAcqRelImpl(1);
  auto Spec = makeAcqRelSpec(1);
  EventMap R1 = makeR1();
  SimOptions Opts;
  Opts.MaxMoves = 16;
  SimReport Rep = checkStrategySimulation(*Impl, *Spec, R1, *Env, Opts);
  EXPECT_FALSE(Rep.Holds);
  EXPECT_NE(Rep.Counterexample.find("divergence"), std::string::npos);
}

TEST(SimulationTest, WrongSpecEventFails) {
  // A spec expecting rel first cannot match the implementation.
  auto Impl = makeAcqRelImpl(1);
  std::vector<std::unique_ptr<Strategy>> Seq;
  Seq.push_back(makeRelSpecStrategy(1));
  Seq.push_back(makeAcqSpecStrategy(1));
  auto Spec = makeSeqStrategy("spec:rel;acq", std::move(Seq));
  EventMap R1 = makeR1();
  auto Env = makeNullEnv();
  SimReport Rep = checkStrategySimulation(*Impl, *Spec, R1, *Env);
  EXPECT_FALSE(Rep.Holds);
  EXPECT_NE(Rep.Counterexample.find("mismatch"), std::string::npos);
}

TEST(SimulationTest, ReturnMismatchFails) {
  // Spec returning 7 from acq while the implementation's hold carries
  // return 0 (makeAcqImplStrategy sets Return only on FAI/get_n moves, so
  // craft a one-move impl with an explicit return).
  auto Impl = makeAtomicCallStrategy(1, "hold", {}, [](const Log &) {
    return std::optional<std::int64_t>(0);
  });
  auto Spec = makeAtomicCallStrategy(1, "acq", {}, [](const Log &) {
    return std::optional<std::int64_t>(7);
  });
  EventMap R1 = makeR1();
  auto Env = makeNullEnv();
  SimReport Rep = checkStrategySimulation(*Impl, *Spec, R1, *Env);
  EXPECT_FALSE(Rep.Holds);
  EXPECT_NE(Rep.Counterexample.find("return mismatch"), std::string::npos);
}

TEST(SimulationTest, LeftoverSpecMovesFail) {
  // Impl finishes after acq but the spec still expects rel.
  auto Impl = makeAtomicCallStrategy(1, "hold", {}, [](const Log &) {
    return std::optional<std::int64_t>(0);
  });
  auto Spec = makeAcqRelSpec(1);
  EventMap R1 = makeR1();
  auto Env = makeNullEnv();
  SimReport Rep = checkStrategySimulation(*Impl, *Spec, R1, *Env);
  EXPECT_FALSE(Rep.Holds);
}

TEST(SimulationTest, FunCertificateRecordsEvidence) {
  auto Impl = makeAcqRelImpl(1);
  auto Spec = makeAcqRelSpec(1);
  EventMap R1 = makeR1();
  auto Env = makeNullEnv();
  SimReport Rep = checkStrategySimulation(*Impl, *Spec, R1, *Env);
  CertPtr C = makeFunCertificate("L0[1]", "M1", "L1[1]", R1, Rep);
  EXPECT_TRUE(C->Valid);
  EXPECT_EQ(C->Rule, "Fun");
  EXPECT_EQ(C->statement(), "L0[1] |-R1 M1 : L1[1]");
  EXPECT_EQ(C->Obligations, Rep.Obligations);
}

TEST(SimulationTest, ContendedAcqUnderEnumeratedFairEnvironment) {
  // The paper's local-verification premise, executably: thread 1's
  // acq;rel is checked against EVERY behavior of an environment context
  // built from thread 2's own ticket-lock strategies plus an enumerated
  // *fair* scheduler (FairReturnBound encodes the rely's fairness).
  std::map<ThreadId, std::shared_ptr<Strategy>> Parts;
  std::vector<std::unique_ptr<Strategy>> Seq2;
  Seq2.push_back(makeAcqImplStrategy(2));
  Seq2.push_back(makeRelImplStrategy(2));
  Parts.emplace(2, std::shared_ptr<Strategy>(
                       makeSeqStrategy("t2:acq;rel", std::move(Seq2))));
  auto Env = makeStrategyEnv(std::move(Parts), /*MaxEnvMoves=*/2,
                             /*FairReturnBound=*/2);

  auto Impl = makeAcqRelImpl(1);
  auto Spec = makeAcqRelSpec(1);
  EventMap R1 = makeR1();
  SimOptions Opts;
  Opts.MaxMoves = 48;
  SimReport Rep = checkStrategySimulation(*Impl, *Spec, R1, *Env, Opts);
  EXPECT_TRUE(Rep.Holds) << Rep.Counterexample;
  EXPECT_GT(Rep.Runs, 1u); // genuinely branched over env behaviors
}

TEST(SimulationTest, UnfairEnumeratedEnvironmentDiverges) {
  // Without the fairness bound the scheduler may never run thread 2 once
  // it holds the ticket ahead of thread 1 — the spin diverges, which is
  // exactly why L'1[i].R must include scheduler fairness (§2).
  std::map<ThreadId, std::shared_ptr<Strategy>> Parts;
  std::vector<std::unique_ptr<Strategy>> Seq2;
  Seq2.push_back(makeAcqImplStrategy(2));
  Seq2.push_back(makeRelImplStrategy(2));
  Parts.emplace(2, std::shared_ptr<Strategy>(
                       makeSeqStrategy("t2:acq;rel", std::move(Seq2))));
  auto Env = makeStrategyEnv(std::move(Parts), /*MaxEnvMoves=*/2,
                             /*FairReturnBound=*/0);

  auto Impl = makeAcqRelImpl(1);
  auto Spec = makeAcqRelSpec(1);
  EventMap R1 = makeR1();
  SimOptions Opts;
  Opts.MaxMoves = 24;
  SimReport Rep = checkStrategySimulation(*Impl, *Spec, R1, *Env, Opts);
  EXPECT_FALSE(Rep.Holds);
  EXPECT_NE(Rep.Counterexample.find("divergence"), std::string::npos);
}
