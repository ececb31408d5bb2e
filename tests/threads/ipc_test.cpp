//===- tests/threads/ipc_test.cpp - IPC channel tests ----------------------------===//

#include "threads/Ipc.h"

#include "tests/common/concurrent_calls.h"

#include <gtest/gtest.h>

using namespace ccal;

TEST(IpcTest, ExactlyOnceInOrderSmall) {
  MonitorCheck C = checkIpcChannel(2);
  EXPECT_TRUE(C.Ok) << C.Violation;
  EXPECT_EQ(C.SchedulesExplored, 1u);
  EXPECT_EQ(C.StatesExplored, 16u);
}

TEST(IpcTest, RingOverflowForcesBothBlockingPaths) {
  // Items > capacity: the sender must block on not-full at least once and
  // the receiver on not-empty.
  MonitorCheck C = checkIpcChannel(IpcRingCap + 2);
  EXPECT_TRUE(C.Ok) << C.Violation;
  EXPECT_EQ(C.SchedulesExplored, 1u);
  EXPECT_EQ(C.StatesExplored, 32u);
}

TEST(IpcTest, CheckIsSafeToCallConcurrently) {
  MonitorCheck Seq = checkIpcChannel(2);
  ASSERT_TRUE(Seq.Ok) << Seq.Violation;
  for (const MonitorCheck &C :
       test::callOnTwoThreads([] { return checkIpcChannel(2); }, 200)) {
    EXPECT_EQ(C.Ok, Seq.Ok);
    EXPECT_EQ(C.Violation, Seq.Violation);
    EXPECT_EQ(C.SchedulesExplored, Seq.SchedulesExplored);
    EXPECT_EQ(C.StatesExplored, Seq.StatesExplored);
  }
}

TEST(IpcTest, ChannelModuleUsesRing) {
  ClightModule M = makeIpcChannelModule();
  EXPECT_NE(M.findFunc("send"), nullptr);
  EXPECT_NE(M.findFunc("recv"), nullptr);
  EXPECT_NE(M.findGlobal("ring"), nullptr);
  EXPECT_EQ(M.findGlobal("ring")->Size, IpcRingCap);
}
