//===- tests/core/strategy_test.cpp - Strategy automata (§2) ------------------===//

#include "core/Strategy.h"

#include "core/EnvContext.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

/// The paper's low-level acquire strategy phi'_acq[i] (§2): FAI_t fetching
/// ticket t, then spin on get_n until it reads t, then hold (entering the
/// critical state).  States: 0 = before FAI, 1 = spinning, 2 = serving
/// matched (emit hold), 3 = done.
std::unique_ptr<Strategy> makeAcqImplStrategy(ThreadId Tid) {
  auto D = [Tid](AutomatonStrategy::State S, const Log &L)
      -> std::optional<AutomatonStrategy::Transition> {
    AutomatonStrategy::Transition T;
    switch (S) {
    case 0: {
      std::int64_t Ticket =
          static_cast<std::int64_t>(logCountKind(L, KindId("FAI_t")));
      T.Move.Events.push_back(Event(Tid, KindId("FAI_t")));
      T.Move.Return = Ticket;
      T.Next = 1;
      return T;
    }
    case 1: {
      // my ticket = number of FAI_t events before mine... recover it from
      // the log: the ticket this thread fetched is the index of its FAI_t.
      std::int64_t Mine = -1, Idx = 0;
      for (const Event &E : L) {
        if (E.Kind != KindId("FAI_t"))
          continue;
        if (E.Tid == Tid)
          Mine = Idx;
        ++Idx;
      }
      std::int64_t Serving =
          static_cast<std::int64_t>(logCountKind(L, KindId("inc_n")));
      T.Move.Events.push_back(Event(Tid, KindId("get_n")));
      T.Move.Return = Serving;
      T.Next = Serving == Mine ? 2 : 1;
      return T;
    }
    case 2:
      T.Move.Events.push_back(Event(Tid, KindId("hold")));
      T.Move.CriticalAfter = true;
      T.Next = 3;
      return T;
    default:
      return std::nullopt;
    }
  };
  return std::make_unique<AutomatonStrategy>("phi'_acq", 0, 3, std::move(D));
}

} // namespace

TEST(StrategyTest, AtomicCallEmitsOneEventAndReturn) {
  auto S = makeAtomicCallStrategy(
      1, "acq", {}, [](const Log &L) -> std::optional<std::int64_t> {
        return static_cast<std::int64_t>(L.size());
      });
  EXPECT_FALSE(S->done());
  Log L;
  std::optional<StrategyMove> M = S->onScheduled(L);
  ASSERT_TRUE(M.has_value());
  ASSERT_EQ(M->Events.size(), 1u);
  EXPECT_EQ(M->Events[0], Event(1, KindId("acq")));
  EXPECT_EQ(M->Return, 1); // computed on the extended log
  EXPECT_TRUE(S->done());
}

TEST(StrategyTest, AtomicCallCanRefuse) {
  auto S = makeAtomicCallStrategy(
      1, "rel", {},
      [](const Log &) -> std::optional<std::int64_t> { return std::nullopt; });
  Log L;
  EXPECT_FALSE(S->onScheduled(L).has_value()); // spec refuses: stuck
}

TEST(StrategyTest, IdleStrategyIsDone) {
  auto S = makeIdleStrategy("idle");
  EXPECT_TRUE(S->done());
  EXPECT_FALSE(S->critical());
}

TEST(StrategyTest, AcqImplSpinsUntilServed) {
  auto S = makeAcqImplStrategy(2);
  Log L = {Event(1, KindId("FAI_t"))}; // thread 1 fetched ticket 0 first

  std::optional<StrategyMove> M = S->onScheduled(L);
  ASSERT_TRUE(M);
  EXPECT_EQ(M->Return, 1); // ticket 1
  logAppendAll(L, M->Events);

  // Spin: serving is 0, mine is 1.
  M = S->onScheduled(L);
  ASSERT_TRUE(M);
  EXPECT_EQ(M->Events[0].Kind, KindId("get_n"));
  EXPECT_EQ(M->Return, 0);
  logAppendAll(L, M->Events);
  EXPECT_FALSE(S->done());

  // Thread 1 releases.
  logAppend(L, Event(1, KindId("inc_n")));
  M = S->onScheduled(L);
  ASSERT_TRUE(M);
  EXPECT_EQ(M->Return, 1); // now serving matches
  logAppendAll(L, M->Events);

  M = S->onScheduled(L);
  ASSERT_TRUE(M);
  EXPECT_EQ(M->Events[0].Kind, KindId("hold"));
  EXPECT_TRUE(S->critical()); // gray state: no env query until release
  EXPECT_TRUE(S->done());
}

TEST(StrategyTest, CloneIsIndependent) {
  auto S = makeAcqImplStrategy(1);
  Log L;
  S->onScheduled(L); // advance original past FAI
  auto C = S->clone();
  // Both are at the spin state; advancing the clone must not move S.
  logAppend(L, Event(1, KindId("FAI_t")));
  // Pretend ticket 0 is served... spin check.
  logAppend(L, Event(1, KindId("inc_n")));
  (void)C->onScheduled(L);
  EXPECT_FALSE(S->done());
}

TEST(StrategyTest, SeqStrategyRunsInOrder) {
  std::vector<std::unique_ptr<Strategy>> Seq;
  Seq.push_back(makeAtomicCallStrategy(
      1, "acq", {}, [](const Log &) { return std::optional<std::int64_t>(0); }));
  Seq.push_back(makeAtomicCallStrategy(
      1, "rel", {}, [](const Log &) { return std::optional<std::int64_t>(0); }));
  auto S = makeSeqStrategy("acq;rel", std::move(Seq));
  Log L;
  std::optional<StrategyMove> M = S->onScheduled(L);
  ASSERT_TRUE(M);
  EXPECT_EQ(M->Events[0].Kind, KindId("acq"));
  EXPECT_FALSE(S->done());
  M = S->onScheduled(L);
  ASSERT_TRUE(M);
  EXPECT_EQ(M->Events[0].Kind, KindId("rel"));
  EXPECT_TRUE(S->done());
}

TEST(EnvContextTest, NullEnvReturnsControlImmediately) {
  auto E = makeNullEnv();
  Log L;
  std::vector<EnvChoice> Choices = E->choices(L);
  ASSERT_EQ(Choices.size(), 1u);
  EXPECT_TRUE(Choices[0].ReturnsControl);
  EXPECT_TRUE(Choices[0].Events.empty());
}

TEST(EnvContextTest, ScriptedEnvPlaysScript) {
  std::vector<EnvChoice> Script(2);
  Script[0].Events = {Event(2, KindId("FAI_t"))};
  Script[0].ReturnsControl = false;
  Script[1].ReturnsControl = true;
  auto E = makeScriptedEnv(Script);
  Log L;
  auto C0 = E->choices(L);
  ASSERT_EQ(C0.size(), 1u);
  EXPECT_EQ(C0[0].Events.size(), 1u);
  E->advance(0, L);
  auto C1 = E->choices(L);
  ASSERT_EQ(C1.size(), 1u);
  EXPECT_TRUE(C1[0].ReturnsControl);
  E->advance(0, L);
  EXPECT_TRUE(E->choices(L).empty()); // exhausted
}

TEST(EnvContextTest, StrategyEnvOffersMovesAndReturn) {
  std::map<ThreadId, std::shared_ptr<Strategy>> Parts;
  Parts.emplace(2, std::shared_ptr<Strategy>(makeAtomicCallStrategy(
                       2, "acq", {},
                       [](const Log &) { return std::optional<std::int64_t>(0); })));
  auto E = makeStrategyEnv(std::move(Parts), /*MaxEnvMoves=*/4);
  Log L;
  auto Choices = E->choices(L);
  // Choice 0 returns control; choice 1 schedules participant 2.
  ASSERT_EQ(Choices.size(), 2u);
  EXPECT_TRUE(Choices[0].ReturnsControl);
  ASSERT_EQ(Choices[1].Events.size(), 1u);
  EXPECT_EQ(Choices[1].Events[0].Kind, KindId("acq"));

  E->advance(1, L);
  logAppendAll(L, Choices[1].Events);
  // Participant 2 is now done: only the return choice remains.
  auto After = E->choices(L);
  ASSERT_EQ(After.size(), 1u);
  EXPECT_TRUE(After[0].ReturnsControl);
}
