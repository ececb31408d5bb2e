//===- tests/core/event_log_test.cpp - Events, logs, replay -------------------===//

#include "core/Log.h"
#include "core/Replay.h"

#include <gtest/gtest.h>

using namespace ccal;

TEST(EventTest, ToStringShapes) {
  EXPECT_EQ(Event(1, KindId("FAI_t")).toString(), "1.FAI_t");
  EXPECT_EQ(Event(2, KindId("push"), {3, 4}).toString(), "2.push(3, 4)");
  EXPECT_EQ(Event::sched(5).toString(), "->5");
}

TEST(EventTest, EqualityAndOrder) {
  Event A(1, KindId("x"), {1});
  Event B(1, KindId("x"), {1});
  Event C(1, KindId("x"), {2});
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_TRUE(A < C);
}

TEST(EventTest, HashDistinguishes) {
  const KindId A("a"), B("b");
  EXPECT_NE(hashEvent(Event(1, A)), hashEvent(Event(2, A)));
  EXPECT_NE(hashEvent(Event(1, A)), hashEvent(Event(1, B)));
  EXPECT_NE(hashEvent(Event(1, A, {1})), hashEvent(Event(1, A, {2})));
}

TEST(LogTest, CountAndFilter) {
  Log L = {Event(1, KindId("acq")), Event(2, KindId("acq")),
           Event(1, KindId("rel"))};
  EXPECT_EQ(logCount(L, 1, KindId("acq")), 1u);
  EXPECT_EQ(logCountKind(L, KindId("acq")), 2u);
  EXPECT_EQ(logFilterTid(L, 1).size(), 2u);
  EXPECT_EQ(logFilterKind(L, KindId("rel")).size(), 1u);
}

TEST(LogTest, ControlFollowsSchedEvents) {
  Log L;
  EXPECT_EQ(logControl(L, 9), 9u);
  logAppend(L, Event::sched(1));
  logAppend(L, Event(1, KindId("x")));
  logAppend(L, Event::sched(2));
  EXPECT_EQ(logControl(L, 9), 2u);
}

TEST(LogTest, HashIsOrderSensitive) {
  Log A = {Event(1, KindId("x")), Event(2, KindId("y"))};
  Log B = {Event(2, KindId("y")), Event(1, KindId("x"))};
  EXPECT_NE(hashLog(A), hashLog(B));
}

namespace {

/// A counter replay: "inc" increments, "dec" decrements, stuck below zero.
Replayer<int> makeCounterReplayer() {
  return Replayer<int>(0, [](int &S, const Event &E) {
    if (E.Kind == KindId("inc"))
      ++S;
    if (E.Kind == KindId("dec")) {
      if (S == 0)
        return false; // stuck below zero
      --S;
    }
    return true;
  });
}

} // namespace

TEST(ReplayTest, FoldsEvents) {
  Replayer<int> R = makeCounterReplayer();
  Log L = {Event(1, KindId("inc")), Event(2, KindId("inc")),
           Event(1, KindId("dec"))};
  EXPECT_EQ(R.replay(L), 1);
}

TEST(ReplayTest, IgnoresUnknownEvents) {
  Replayer<int> R = makeCounterReplayer();
  Log L = {Event(1, KindId("inc")), Event(1, KindId("whatever"), {3})};
  EXPECT_EQ(R.replay(L), 1);
}

TEST(ReplayTest, StuckOnProtocolViolation) {
  Replayer<int> R = makeCounterReplayer();
  Log L = {Event(1, KindId("dec"))};
  EXPECT_FALSE(R.replay(L).has_value());
  EXPECT_FALSE(R.wellFormed(L));
}

TEST(ReplayTest, DeterministicReplay) {
  // The same log always reconstructs the same state (the property that
  // justifies representing shared state by the log alone, §7).
  Replayer<int> R = makeCounterReplayer();
  Log L;
  for (int I = 0; I < 50; ++I)
    logAppend(L, Event(static_cast<ThreadId>(I % 3), KindId("inc")));
  EXPECT_EQ(R.replay(L), R.replay(L));
  EXPECT_EQ(R.replay(L), 50);
}
