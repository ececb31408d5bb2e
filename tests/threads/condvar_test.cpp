//===- tests/threads/condvar_test.cpp - Condition variable tests -----------------===//

#include "threads/CondVar.h"

#include "tests/common/concurrent_calls.h"

#include <gtest/gtest.h>

using namespace ccal;

TEST(CondVarTest, BoundedBufferDeliversInOrder) {
  MonitorCheck C = checkBoundedBuffer(3);
  EXPECT_TRUE(C.Ok) << C.Violation;
  EXPECT_EQ(C.SchedulesExplored, 1u);
  EXPECT_EQ(C.StatesExplored, 30u);
}

TEST(CondVarTest, BoundedBufferMoreItems) {
  MonitorCheck C = checkBoundedBuffer(5);
  EXPECT_TRUE(C.Ok) << C.Violation;
  EXPECT_EQ(C.SchedulesExplored, 1u);
  EXPECT_EQ(C.StatesExplored, 50u);
}

TEST(CondVarTest, LostWakeupDeadlockIsFound) {
  // The classic single-CV, wake-one, two-producer bug: the explorer must
  // expose a deadlock on some schedule (this is the checker *working*, not
  // a library bug).
  MonitorCheck C = checkBoundedBufferLostWakeup(3);
  EXPECT_FALSE(C.Ok);
  EXPECT_NE(C.Violation.find("deadlock"), std::string::npos)
      << C.Violation;
  EXPECT_EQ(C.SchedulesExplored, 0u);
  EXPECT_EQ(C.StatesExplored, 22u);
}

TEST(CondVarTest, CheckIsSafeToCallConcurrently) {
  MonitorCheck Seq = checkBoundedBuffer(3);
  ASSERT_TRUE(Seq.Ok) << Seq.Violation;
  for (const MonitorCheck &C :
       test::callOnTwoThreads([] { return checkBoundedBuffer(3); }, 200)) {
    EXPECT_EQ(C.Ok, Seq.Ok);
    EXPECT_EQ(C.Violation, Seq.Violation);
    EXPECT_EQ(C.SchedulesExplored, Seq.SchedulesExplored);
    EXPECT_EQ(C.StatesExplored, Seq.StatesExplored);
  }
}

TEST(CondVarTest, ModuleShapes) {
  ClightModule Cv = makeCondVarModule();
  EXPECT_NE(Cv.findFunc("cv_wait"), nullptr);
  EXPECT_NE(Cv.findFunc("cv_signal"), nullptr);
  EXPECT_TRUE(Cv.findFunc("acq_q")->IsExtern); // monitor lock from below
}
