//===- tests/machine/snapshot_test.cpp - Snapshots assigned in place -------===//
//
// The Explorer copy-assigns a machine into a DFS slot that held another
// snapshot, and swaps machines between slots, instead of building fresh
// copies: the CPUs, VMs, fold states and log assign in place and keep the
// storage the slot held.  These tests check that a machine assigned or
// swapped into a used slot is indistinguishable from a fresh copy, now and
// after every next step, under SC and under release/acquire.
//
//===----------------------------------------------------------------------===//

#include "machine/MultiCore.h"
#include "objects/McsLock.h"
#include "objects/TicketLock.h"

#include <gtest/gtest.h>

#include <utility>

using namespace ccal;

namespace {

/// Everything a machine shows the Explorer: status, log, fold, returns,
/// the scheduler's menu and each candidate's primitive and variants.
void expectSameMachine(const MultiCoreMachine &A, const MultiCoreMachine &B,
                       const std::string &Where) {
  SCOPED_TRACE(Where);
  ASSERT_EQ(A.ok(), B.ok());
  EXPECT_EQ(A.error(), B.error());
  EXPECT_EQ(A.log(), B.log());
  EXPECT_EQ(A.log().runHash(), B.log().runHash());
  EXPECT_EQ(A.log().runAltHash(), B.log().runAltHash());
  EXPECT_TRUE(A.fold() == B.fold());
  EXPECT_EQ(A.returns(), B.returns());
  EXPECT_EQ(A.allIdle(), B.allIdle());
  ASSERT_EQ(A.schedulable(), B.schedulable());
  for (ThreadId C : A.schedulable()) {
    EXPECT_EQ(A.pendingPrim(C), B.pendingPrim(C));
    EXPECT_EQ(A.stepVariants(C), B.stepVariants(C));
  }
}

/// expectSameMachine now and after each possible next step of each.
void expectSameFromHere(const MultiCoreMachine &A, const MultiCoreMachine &B,
                        const std::string &Where) {
  expectSameMachine(A, B, Where);
  if (!A.ok())
    return;
  for (ThreadId C : A.schedulable())
    for (unsigned V = 0, N = A.stepVariants(C); V != N; ++V) {
      MultiCoreMachine SA = A, SB = B;
      const bool OkA = SA.step(C, V), OkB = SB.step(C, V);
      EXPECT_EQ(OkA, OkB);
      expectSameMachine(SA, SB,
                        Where + " then CPU " + std::to_string(C) +
                            " variant " + std::to_string(V));
    }
}

/// Up to \p Max snapshots reachable from \p Root, in breadth-first order
/// over every step and reads-from variant, so they differ in depth, log
/// length, fold state and the CPUs' frames.
std::vector<MultiCoreMachine> reachable(const MultiCoreMachine &Root,
                                        size_t Max) {
  std::vector<MultiCoreMachine> Out{Root};
  for (size_t I = 0; I != Out.size() && Out.size() < Max; ++I) {
    const MultiCoreMachine M = Out[I];
    for (ThreadId C : M.schedulable())
      for (unsigned V = 0, N = M.stepVariants(C); V != N; ++V) {
        if (Out.size() >= Max)
          break;
        MultiCoreMachine Next = M;
        if (Next.step(C, V))
          Out.push_back(std::move(Next));
      }
  }
  return Out;
}

/// Assigns every sampled snapshot into a slot that held each other one,
/// and swaps it out of that slot again.
void checkSlots(const MachineConfigPtr &Cfg) {
  MultiCoreMachine Root(Cfg);
  ASSERT_TRUE(Root.ok()) << Root.error();
  std::vector<MultiCoreMachine> All = reachable(Root, 400);
  ASSERT_GE(All.size(), 40u);
  std::vector<MultiCoreMachine> Sample;
  for (size_t I = 0; I < All.size(); I += All.size() / 12)
    Sample.push_back(All[I]);
  Sample.push_back(All.back());

  for (size_t I = 0; I != Sample.size(); ++I)
    for (size_t J = 0; J != Sample.size(); ++J) {
      const std::string Where =
          "slot held " + std::to_string(J) + ", got " + std::to_string(I);
      const MultiCoreMachine Fresh = Sample[I];
      MultiCoreMachine Slot = Sample[J];
      Slot = Sample[I];
      expectSameFromHere(Slot, Fresh, Where);

      // Stepping an assigned slot leaves its source alone.
      MultiCoreMachine Stepped = Sample[J];
      Stepped = Sample[I];
      for (ThreadId C : Stepped.schedulable())
        Stepped.step(C, 0);
      expectSameMachine(Sample[I], Fresh, Where + ", source");

      // The last child swaps machines with its parent's slot.
      MultiCoreMachine Other = Sample[J];
      using std::swap;
      swap(Slot, Other);
      expectSameFromHere(Other, Fresh, Where + ", swapped out");
      expectSameFromHere(Slot, Sample[J], Where + ", swapped in");
    }

  // A slot whose machine was moved away takes a copy like any other.
  MultiCoreMachine Donor = Sample.back();
  MultiCoreMachine Taken = std::move(Donor);
  Donor = Sample[1];
  expectSameFromHere(Donor, Sample[1], "moved-from slot");
  expectSameFromHere(Taken, Sample.back(), "moved-to machine");
}

} // namespace

TEST(SnapshotSlotTest, TicketScAssignsAndSwapsInPlace) {
  ObjectHarness H = makeTicketLockHarness(2, 2);
  checkSlots(H.implConfig());
}

TEST(SnapshotSlotTest, McsScAssignsAndSwapsInPlace) {
  ObjectHarness H = makeMcsLockHarness(2, 1);
  checkSlots(H.implConfig());
}

TEST(SnapshotSlotTest, TicketRaAssignsAndSwapsInPlace) {
  ObjectHarness H = makeTicketLockHarnessRa(2, 1);
  MachineConfigPtr Cfg = H.implConfig();
  ASSERT_EQ(Cfg->Model, MemoryModel::Ra);
  checkSlots(Cfg);
}

TEST(SnapshotSlotTest, McsRaAssignsAndSwapsInPlace) {
  ObjectHarness H = makeMcsLockHarnessRa(2, 1);
  MachineConfigPtr Cfg = H.implConfig();
  ASSERT_EQ(Cfg->Model, MemoryModel::Ra);
  checkSlots(Cfg);
}
