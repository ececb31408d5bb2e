//===- tests/core/log_model_test.cpp - Persistent log vs reference model ------===//
//
// Property-based check of the chunked copy-on-write Log against the data
// structure it replaced: a plain std::vector<Event>.  Random interleavings
// of append, copy, and clear across a population of logs must leave every
// Log observationally identical to its shadow vector — size/indexing/
// iteration, equality between every pair, and hashLog equality exactly
// when contents are equal.  This is the safety net under the Explorer's
// snapshot sharing: sealed chunks are shared between machine copies, so an
// aliasing bug here would corrupt counterexamples, not just benchmarks.
//
//===----------------------------------------------------------------------===//

#include "core/Log.h"

#include "core/Replay.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace ccal;

namespace {

/// A Log under test paired with its reference model.
struct Pair {
  Log L;
  std::vector<Event> Ref;
};

Event randomEvent(Rng &R) {
  static const char *const Kinds[] = {"acq", "rel",  "FAI_t", "hold",
                                      "f",   "push", "pop",   "sched"};
  Event E(static_cast<ThreadId>(R.below(4)),
          KindId(Kinds[R.below(sizeof(Kinds) / sizeof(Kinds[0]))]));
  std::uint64_t NArgs = R.below(3);
  for (std::uint64_t I = 0; I != NArgs; ++I)
    E.Args.push_back(R.range(-100, 100));
  return E;
}

/// Log::runAltHash of a log holding exactly \p Events, from scratch.
std::uint64_t altHashModel(const std::vector<Event> &Events) {
  std::uint64_t H = 0;
  for (const Event &E : Events) {
    H = hashCombineAlt(H, E.Tid);
    H = hashCombineAlt(H, E.Kind.strHash());
    H = hashCombineAlt(H, E.Args.size());
    for (std::int64_t A : E.Args)
      H = hashCombineAlt(H, static_cast<std::uint64_t>(A));
  }
  return H;
}

void checkAgainstModel(const Pair &P, const std::string &Ctx) {
  ASSERT_EQ(P.L.size(), P.Ref.size()) << Ctx;
  ASSERT_EQ(P.L.empty(), P.Ref.empty()) << Ctx;
  for (size_t I = 0; I != P.Ref.size(); ++I)
    ASSERT_EQ(P.L[I], P.Ref[I]) << Ctx << " at index " << I;
  if (!P.Ref.empty()) {
    ASSERT_EQ(P.L.back(), P.Ref.back()) << Ctx;
  }
  // Iteration visits the same sequence as indexing.
  size_t I = 0;
  for (const Event &E : P.L)
    ASSERT_EQ(E, P.Ref[I++]) << Ctx;
  ASSERT_EQ(I, P.Ref.size()) << Ctx;
  // The implicit vector-to-Log view is the identity on contents.
  ASSERT_EQ(P.L, Log(P.Ref)) << Ctx;
  ASSERT_EQ(hashLog(P.L), hashLog(Log(P.Ref))) << Ctx;
  // The running alternate hash survives appends, copies and clears.
  ASSERT_EQ(P.L.runAltHash(), altHashModel(P.Ref)) << Ctx;
}

} // namespace

TEST(LogModelTest, RandomOpsMatchVectorModel) {
  const unsigned Trials = 30;
  const unsigned Steps = 120;
  for (unsigned T = 0; T != Trials; ++T) {
    Rng R(0x10d0000ULL + T);
    std::vector<Pair> Pop(1);
    for (unsigned S = 0; S != Steps; ++S) {
      size_t Who = R.below(Pop.size());
      Pair &P = Pop[Who];
      switch (R.below(4)) {
      case 0:
      case 1: { // append (biased: logs mostly grow)
        Event E = randomEvent(R);
        P.L.push_back(E);
        P.Ref.push_back(E);
        break;
      }
      case 2: // copy: sealed chunks are shared with the original
        if (Pop.size() < 8)
          Pop.push_back(Pop[Who]);
        break;
      case 3:
        if (R.chance(1, 4)) {
          P.L.clear();
          P.Ref.clear();
        }
        break;
      }
      // Mutating one member of the population must not disturb another
      // (copy-on-write isolation), so re-check everybody every step.
      for (size_t J = 0; J != Pop.size(); ++J)
        checkAgainstModel(Pop[J],
                          "trial " + std::to_string(T) + " step " +
                              std::to_string(S) + " log " + std::to_string(J));
      // Pairwise equality and hash consistency.
      for (size_t A = 0; A != Pop.size(); ++A)
        for (size_t B = 0; B != Pop.size(); ++B) {
          bool RefEq = Pop[A].Ref == Pop[B].Ref;
          ASSERT_EQ(Pop[A].L == Pop[B].L, RefEq)
              << "trial " << T << " step " << S << " pair " << A << "," << B;
          if (RefEq) {
            ASSERT_EQ(hashLog(Pop[A].L), hashLog(Pop[B].L));
          }
        }
    }
  }
}

TEST(LogModelTest, ChunkBoundaryEquality) {
  // Equality right at the sealing boundary (16 events), where one
  // operand's events live in a sealed chunk and the other's were appended
  // one by one into a fresh tail.
  for (size_t N : {15u, 16u, 17u, 31u, 32u, 33u}) {
    Log A, B;
    for (size_t I = 0; I != N; ++I) {
      Event E(1, KindId("e"), {static_cast<std::int64_t>(I)});
      A.push_back(E);
      B.push_back(E);
    }
    EXPECT_EQ(A, B) << N;
    EXPECT_EQ(hashLog(A), hashLog(B)) << N;
    Log C = A; // shares A's sealed chunks
    C.push_back(Event(2, KindId("x")));
    EXPECT_NE(A, C) << N;
  }
}

namespace {

/// A summing replayer: "add" events add their argument, "stuck" is refused.
Replayer<int> makeSumReplayer() {
  return Replayer<int>(0, [](int &S, const Event &E) {
    if (E.Kind == KindId("stuck"))
      return false;
    S += E.Args.empty() ? 1 : static_cast<int>(E.Args[0]);
    return true;
  });
}

} // namespace

// The ReplayMemo* tests pin what callers rely on: replay caches nothing
// between calls, so repeated and extended replays, replayers sharing a
// log, and copied replayers all agree with the plain fold.

TEST(LogModelTest, ReplayMemoIsSemanticallyInvisible) {
  // Repeated replays of the same and of extended logs always equal the
  // running sum.
  Replayer<int> R = makeSumReplayer();
  Log L;
  int Expect = 0;
  for (int I = 1; I <= 40; ++I) {
    L.push_back(Event(1, KindId("add"), {I}));
    Expect += I;
    for (int Rep = 0; Rep != 3; ++Rep) {
      std::optional<int> Got = R.replay(L);
      ASSERT_TRUE(Got.has_value());
      EXPECT_EQ(*Got, Expect) << "length " << I;
    }
  }
}

TEST(LogModelTest, ReplayMemoDistinguishesReplayers) {
  // Two replayers with different semantics replaying the SAME log stay
  // independent.
  Replayer<int> A = makeSumReplayer();
  Replayer<int> B(100, [](int &S, const Event &) {
    --S;
    return true;
  });
  Log L = {Event(1, KindId("add"), {5}), Event(1, KindId("add"), {7})};
  for (int Rep = 0; Rep != 4; ++Rep) {
    EXPECT_EQ(A.replay(L), std::optional<int>(12));
    EXPECT_EQ(B.replay(L), std::optional<int>(98));
  }
}

TEST(LogModelTest, ReplayMemoStuckPrefixStaysStuck) {
  Replayer<int> R = makeSumReplayer();
  Log L = {Event(1, KindId("add"), {1}), Event(1, KindId("stuck"))};
  EXPECT_FALSE(R.replay(L).has_value());
  // Extending a stuck log keeps it stuck.
  L.push_back(Event(1, KindId("add"), {2}));
  EXPECT_FALSE(R.replay(L).has_value());
  EXPECT_FALSE(R.replay(L).has_value());
}

TEST(LogModelTest, ReplayMemoCopiesShareSemantics) {
  // A copied Replayer has identical semantics.
  Replayer<int> A = makeSumReplayer();
  Replayer<int> B = A;
  Log L = {Event(1, KindId("add"), {3}), Event(1, KindId("add"), {4})};
  EXPECT_EQ(A.replay(L), std::optional<int>(7));
  EXPECT_EQ(B.replay(L), std::optional<int>(7));
}
