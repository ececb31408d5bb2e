//===- tests/mem/pushpull_test.cpp - Push/pull memory model tests --------------===//

#include "mem/PushPull.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

PushPullModel makeModel() {
  PushPullModel M;
  PushPullModel::Location Cell;
  Cell.Loc = 0;
  Cell.LocalBase = 10;
  Cell.Size = 2;
  Cell.Init = {5, 6};
  M.addLocation(Cell);
  return M;
}

} // namespace

TEST(PushPullTest, InitialReplayState) {
  PushPullModel M = makeModel();
  std::optional<SharedMemState> S = M.replayer().replay({});
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->at(0).Contents, (std::vector<std::int64_t>{5, 6}));
  EXPECT_FALSE(S->at(0).Owner.has_value());
}

TEST(PushPullTest, PullTakesOwnership) {
  PushPullModel M = makeModel();
  Log L = {Event(1, PullEventKind, {0})};
  std::optional<SharedMemState> S = M.replayer().replay(L);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->at(0).Owner, 1u);
}

TEST(PushPullTest, DoublePullIsARace) {
  PushPullModel M = makeModel();
  Log L = {Event(1, PullEventKind, {0}), Event(2, PullEventKind, {0})};
  EXPECT_FALSE(M.replayer().replay(L).has_value()); // stuck: Fig. 6's None case
}

TEST(PushPullTest, PushWithoutOwnershipIsARace) {
  PushPullModel M = makeModel();
  Log L = {Event(1, PushEventKind, {0, 7, 8})};
  EXPECT_FALSE(M.replayer().replay(L).has_value());
}

TEST(PushPullTest, PushByNonOwnerIsARace) {
  PushPullModel M = makeModel();
  Log L = {Event(1, PullEventKind, {0}), Event(2, PushEventKind, {0, 7, 8})};
  EXPECT_FALSE(M.replayer().replay(L).has_value());
}

TEST(PushPullTest, PushPublishesAndFrees) {
  PushPullModel M = makeModel();
  Log L = {Event(1, PullEventKind, {0}), Event(1, PushEventKind, {0, 7, 8}),
           Event(2, PullEventKind, {0})};
  std::optional<SharedMemState> S = M.replayer().replay(L);
  ASSERT_TRUE(S.has_value());
  EXPECT_EQ(S->at(0).Contents, (std::vector<std::int64_t>{7, 8}));
  EXPECT_EQ(S->at(0).Owner, 2u);
}

TEST(PushPullTest, WrongAritypushIsStuck) {
  PushPullModel M = makeModel();
  Log L = {Event(1, PullEventKind, {0}), Event(1, PushEventKind, {0, 7})};
  EXPECT_FALSE(M.replayer().replay(L).has_value()); // contents must match cell size
}

TEST(PushPullTest, UnknownLocationIsStuck) {
  PushPullModel M = makeModel();
  Log L = {Event(1, PullEventKind, {42})};
  EXPECT_FALSE(M.replayer().replay(L).has_value());
}

TEST(PushPullTest, PrimSemanticsDeliverContents) {
  PushPullModel M = makeModel();
  LayerInterface L("Lmem");
  M.installPrims(L);

  const Primitive *Pull = L.lookup(PullEventKind);
  ASSERT_NE(Pull, nullptr);
  EXPECT_TRUE(Pull->Shared);

  FoldValue Empty = L.fold().replay({});
  std::vector<std::int64_t> LocalMem(16, 0);
  PrimCall Call;
  Call.Tid = 3;
  Call.Args = {0};
  Call.Fold = &Empty;
  Call.LocalMem = &LocalMem;
  std::optional<PrimResult> Res = Pull->Sem(Call);
  ASSERT_TRUE(Res.has_value());
  ASSERT_EQ(Res->Events.size(), 1u);
  EXPECT_EQ(Res->Events[0].Kind, PullEventKind);
  // Contents delivered at the local base.
  ASSERT_EQ(Res->LocalWrites.size(), 2u);
  EXPECT_EQ(Res->LocalWrites[0], std::make_pair(10, std::int64_t(5)));
  EXPECT_EQ(Res->LocalWrites[1], std::make_pair(11, std::int64_t(6)));
}

TEST(PushPullTest, PrimPushReadsLocalCopy) {
  PushPullModel M = makeModel();
  LayerInterface L("Lmem");
  M.installPrims(L);
  const Primitive *Push = L.lookup(PushEventKind);
  ASSERT_NE(Push, nullptr);

  FoldValue Pulled = L.fold().replay({Event(3, PullEventKind, {0})});
  std::vector<std::int64_t> LocalMem(16, 0);
  LocalMem[10] = 70;
  LocalMem[11] = 71;
  PrimCall Call;
  Call.Tid = 3;
  Call.Args = {0};
  Call.Fold = &Pulled;
  Call.LocalMem = &LocalMem;
  std::optional<PrimResult> Res = Push->Sem(Call);
  ASSERT_TRUE(Res.has_value());
  ASSERT_EQ(Res->Events.size(), 1u);
  EXPECT_EQ(Res->Events[0].Args,
            (std::vector<std::int64_t>{0, 70, 71}));
}

TEST(PushPullTest, PrimPullOfOwnedCellGetsStuck) {
  PushPullModel M = makeModel();
  LayerInterface L("Lmem");
  M.installPrims(L);
  const Primitive *Pull = L.lookup(PullEventKind);

  FoldValue Owned = L.fold().replay({Event(1, PullEventKind, {0})});
  std::vector<std::int64_t> LocalMem(16, 0);
  PrimCall Call;
  Call.Tid = 2;
  Call.Args = {0};
  Call.Fold = &Owned;
  Call.LocalMem = &LocalMem;
  EXPECT_FALSE(Pull->Sem(Call).has_value());
}

TEST(PushPullTest, PrimPushWithoutOwnershipGetsStuck) {
  // Negative control for push's ownership guard: the cell is owned by
  // CPU 1, so CPU 2's push is a race; CPU 1's own push is accepted.
  PushPullModel M = makeModel();
  LayerInterface L("Lmem");
  M.installPrims(L);
  const Primitive *Push = L.lookup(PushEventKind);

  FoldValue Owned = L.fold().replay({Event(1, PullEventKind, {0})});
  std::vector<std::int64_t> LocalMem(16, 0);
  PrimCall Call;
  Call.Tid = 2;
  Call.Args = {0};
  Call.Fold = &Owned;
  Call.LocalMem = &LocalMem;
  EXPECT_FALSE(Push->Sem(Call).has_value());
  Call.Tid = 1;
  std::optional<PrimResult> Res = Push->Sem(Call);
  ASSERT_TRUE(Res.has_value());
  ASSERT_EQ(Res->Events.size(), 1u);
  EXPECT_EQ(Res->Events[0], Event(1, PushEventKind, {0, 0, 0}));
  // The free cell can be pushed by no one.
  FoldValue Free = L.fold().replay({});
  Call.Fold = &Free;
  EXPECT_FALSE(Push->Sem(Call).has_value());
}
