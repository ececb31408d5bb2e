//===- tests/threads/linking_test.cpp - Thm 5.1 multithreaded linking -----------===//

#include "threads/Linking.h"

#include "support/Json.h"
#include "tests/common/concurrent_calls.h"

#include <gtest/gtest.h>

using namespace ccal;

TEST(LinkingTest, TwoWorkersTwoRounds) {
  LinkingSetup Setup;
  Setup.NumThreads = 2;
  Setup.Rounds = 2;
  LinkingReport Rep = checkMultithreadedLinking(Setup);
  EXPECT_TRUE(Rep.Refinement.Holds) << Rep.Refinement.Counterexample;
  EXPECT_TRUE(Rep.Cert->Valid);
  EXPECT_EQ(Rep.Cert->Rule, "MultithreadLink");
  // One CPU, non-preemptive: deterministic on both levels.
  EXPECT_EQ(Rep.Refinement.ImplOutcomes, 1u);
  EXPECT_EQ(Rep.Refinement.SpecOutcomes, 1u);
  EXPECT_EQ(Rep.Refinement.SchedulesExplored, 2u);
  EXPECT_EQ(Rep.Refinement.StatesExplored, 30u);
}

TEST(LinkingTest, ThreeWorkers) {
  LinkingSetup Setup;
  Setup.NumThreads = 3;
  Setup.Rounds = 1;
  LinkingReport Rep = checkMultithreadedLinking(Setup);
  EXPECT_TRUE(Rep.Refinement.Holds) << Rep.Refinement.Counterexample;
  EXPECT_EQ(Rep.Refinement.SchedulesExplored, 2u);
  EXPECT_EQ(Rep.Refinement.StatesExplored, 31u);
}

TEST(LinkingTest, ManyRounds) {
  LinkingSetup Setup;
  Setup.NumThreads = 2;
  Setup.Rounds = 5;
  LinkingReport Rep = checkMultithreadedLinking(Setup);
  EXPECT_TRUE(Rep.Refinement.Holds) << Rep.Refinement.Counterexample;
  EXPECT_GT(Rep.Refinement.ObligationsChecked, 0u);
  EXPECT_EQ(Rep.Refinement.SchedulesExplored, 2u);
  EXPECT_EQ(Rep.Refinement.StatesExplored, 54u);
}

TEST(LinkingTest, CheckIsSafeToCallConcurrently) {
  LinkingSetup Setup;
  Setup.NumThreads = 2;
  Setup.Rounds = 2;
  auto Payload = [](const LinkingReport &Rep) {
    return jsonToString(refinementToPayload(Rep.Refinement));
  };
  LinkingReport Seq = checkMultithreadedLinking(Setup);
  ASSERT_TRUE(Seq.Refinement.Holds) << Seq.Refinement.Counterexample;
  for (const LinkingReport &Rep : test::callOnTwoThreads(
           [&] { return checkMultithreadedLinking(Setup); }, 200))
    EXPECT_EQ(Payload(Rep), Payload(Seq));
}
