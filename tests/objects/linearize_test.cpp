//===- tests/objects/linearize_test.cpp - Linearizability search tests ----------===//

#include "objects/Linearize.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

/// Sequential counter spec: "inc" returns the number of previous incs.
SeqSpec<std::int64_t> counterSpec() {
  return {0, [](std::int64_t &Incs, ThreadId,
                const ObservedOp &Op) -> std::optional<std::int64_t> {
            if (Op.Method != "inc")
              return std::nullopt;
            return Incs++;
          }};
}

/// Sequential FIFO queue spec over enQ/deQ.
SeqSpec<std::vector<std::int64_t>> queueSpec() {
  return {{}, [](std::vector<std::int64_t> &Q, ThreadId,
                 const ObservedOp &Op) -> std::optional<std::int64_t> {
            if (Op.Method == "enQ") {
              Q.push_back(Op.Args[0]);
              return 0;
            }
            if (Op.Method != "deQ")
              return std::nullopt;
            if (Q.empty())
              return -1;
            std::int64_t Front = Q.front();
            Q.erase(Q.begin());
            return Front;
          }};
}

} // namespace

TEST(LinearizeTest, SequentialHistoryIsLinearizable) {
  std::map<ThreadId, std::vector<ObservedOp>> H;
  H[1] = {{"inc", {}, 0}, {"inc", {}, 1}};
  LinearizeResult R = findLinearization(H, counterSpec());
  EXPECT_TRUE(R.Linearizable);
  EXPECT_EQ(R.Witness.size(), 2u);
}

TEST(LinearizeTest, ConcurrentCounterHistory) {
  // Thread 1 saw 0 then 2; thread 2 saw 1: the only witness interleaves
  // t2's inc between t1's two.
  std::map<ThreadId, std::vector<ObservedOp>> H;
  H[1] = {{"inc", {}, 0}, {"inc", {}, 2}};
  H[2] = {{"inc", {}, 1}};
  LinearizeResult R = findLinearization(H, counterSpec());
  ASSERT_TRUE(R.Linearizable);
  ASSERT_EQ(R.Witness.size(), 3u);
  EXPECT_EQ(R.Witness[1].Tid, 2u);
}

TEST(LinearizeTest, ImpossibleHistoryRejected) {
  // Two operations both claiming to be the first inc.
  std::map<ThreadId, std::vector<ObservedOp>> H;
  H[1] = {{"inc", {}, 0}};
  H[2] = {{"inc", {}, 0}};
  LinearizeResult R = findLinearization(H, counterSpec());
  EXPECT_FALSE(R.Linearizable);
}

TEST(LinearizeTest, ProgramOrderRespected) {
  // Thread 1 claims 1 then 0 — impossible in program order even though a
  // reordering would satisfy the spec.
  std::map<ThreadId, std::vector<ObservedOp>> H;
  H[1] = {{"inc", {}, 1}, {"inc", {}, 0}};
  H[2] = {{"inc", {}, 2}};
  LinearizeResult R = findLinearization(H, counterSpec());
  EXPECT_FALSE(R.Linearizable);
}

TEST(LinearizeTest, QueueHistoryWithValues) {
  std::map<ThreadId, std::vector<ObservedOp>> H;
  H[1] = {{"enQ", {7}, 0}, {"enQ", {8}, 0}};
  H[2] = {{"deQ", {}, 7}, {"deQ", {}, 8}};
  LinearizeResult R = findLinearization(H, queueSpec());
  EXPECT_TRUE(R.Linearizable);
}

TEST(LinearizeTest, QueueDuplicateDeliveryRejected) {
  std::map<ThreadId, std::vector<ObservedOp>> H;
  H[1] = {{"enQ", {7}, 0}};
  H[2] = {{"deQ", {}, 7}, {"deQ", {}, 7}};
  LinearizeResult R = findLinearization(H, queueSpec());
  EXPECT_FALSE(R.Linearizable);
}

TEST(LinearizeTest, BudgetExhaustionReported) {
  // Large symmetric history with an unsatisfiable tail and a tiny budget.
  std::map<ThreadId, std::vector<ObservedOp>> H;
  for (ThreadId T = 1; T <= 6; ++T)
    H[T] = {{"inc", {}, 0}, {"inc", {}, 0}};
  LinearizeResult R = findLinearization(H, counterSpec(), /*MaxNodes=*/50);
  EXPECT_FALSE(R.Linearizable);
}

TEST(LinearizeTest, OutcomeIsThreeWayNeverConflated) {
  // The same unsatisfiable history under three budgets, pinning the
  // fail-closed contract every caller leans on: a cut-off search is
  // BudgetExhausted — it must never read as Refuted (false alarm) and can
  // of course never read as Linearizable (unsound).
  // Concurrent enqueues branch freely (every order is legal), and the
  // one impossible dequeue only refutes after the whole product of
  // enqueue interleavings is exhausted — a tiny budget cuts that off.
  std::map<ThreadId, std::vector<ObservedOp>> H;
  for (ThreadId T = 1; T <= 5; ++T)
    H[T] = {{"enQ", {T}, 0}, {"enQ", {T + 10}, 0}};
  H[1].push_back({"deQ", {}, 99}); // 99 was never enqueued

  LinearizeResult Cut = findLinearization(H, queueSpec(), /*MaxNodes=*/50);
  EXPECT_TRUE(Cut.BudgetExhausted);
  EXPECT_EQ(Cut.outcome(), LinearizeOutcome::BudgetExhausted);

  LinearizeResult Full = findLinearization(H, queueSpec());
  EXPECT_FALSE(Full.BudgetExhausted);
  EXPECT_EQ(Full.outcome(), LinearizeOutcome::Refuted);

  std::map<ThreadId, std::vector<ObservedOp>> Ok;
  Ok[1] = {{"inc", {}, 0}};
  Ok[2] = {{"inc", {}, 1}};
  EXPECT_EQ(findLinearization(Ok, counterSpec()).outcome(),
            LinearizeOutcome::Linearizable);
}

TEST(LinearizeTest, PrecedenceTurnsSequentialConsistencyIntoLinearizability) {
  // t1 saw inc->1, t2 saw inc->0: sequentially consistent (t2 first).  A
  // real-time edge "t2's op follows t1's full history" contradicts that
  // only order, so with precedence supplied the history must be Refuted.
  std::map<ThreadId, std::vector<ObservedOp>> H;
  H[1] = {{"inc", {}, 1}};
  H[2] = {{"inc", {}, 0}};
  EXPECT_EQ(findLinearization(H, counterSpec()).outcome(),
            LinearizeOutcome::Linearizable);

  PrecedenceMap P;
  P[{2, 0}] = {{1, 1}}; // thread 1 must have placed 1 op before (2,0)
  LinearizeResult R =
      findLinearization(H, counterSpec(), 1u << 22, &P);
  EXPECT_EQ(R.outcome(), LinearizeOutcome::Refuted);
}

TEST(LinearizeTest, PriorityChangesSearchOrderNeverOutcome) {
  std::map<ThreadId, std::vector<ObservedOp>> H;
  H[1] = {{"inc", {}, 0}, {"inc", {}, 2}};
  H[2] = {{"inc", {}, 1}};
  for (bool TwoFirst : {false, true}) {
    PriorityMap Pri;
    Pri[{1, 0}] = TwoFirst ? 10 : 0;
    Pri[{1, 1}] = TwoFirst ? 11 : 1;
    Pri[{2, 0}] = TwoFirst ? 0 : 10;
    LinearizeResult R =
        findLinearization(H, counterSpec(), 1u << 22, nullptr, &Pri);
    ASSERT_EQ(R.outcome(), LinearizeOutcome::Linearizable);
    ASSERT_EQ(R.Witness.size(), 3u);
    EXPECT_EQ(R.Witness[1].Tid, 2u)
        << "only one witness exists; priority may not invent another";
  }
}

TEST(LinearizeTest, LongSingleThreadHistoryNeedsNoCallStack) {
  // One placed operation per search node, 65,536 deep (the auditor's
  // window cap): the search keeps its path on an explicit stack, so the
  // depth is bounded by memory, not by the thread's call stack.
  const std::int64_t N = 65536;
  std::map<ThreadId, std::vector<ObservedOp>> H;
  for (std::int64_t I = 0; I != N; ++I)
    H[1].push_back({"inc", {}, I});
  LinearizeResult R = findLinearization(H, counterSpec());
  ASSERT_EQ(R.outcome(), LinearizeOutcome::Linearizable);
  EXPECT_EQ(R.NodesExplored, static_cast<std::uint64_t>(N + 1));
  ASSERT_EQ(R.Witness.size(), static_cast<size_t>(N));
  EXPECT_EQ(R.Witness.back().Tid, 1u);
}
