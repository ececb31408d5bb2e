//===- tests/objects/match_test.cpp - The refinement match in place ------------===//
//
// The outcome-inclusion engine matches each implementation outcome without
// building one: it maps the log through R into reused storage
// (EventMap::applyInto) and looks the events up with the returns compared
// where they are (OutcomeSet::contains on events).  These tests hold that
// lookup to the Outcome-building one, contains(Key(R, O)), on every stored
// implementation outcome of two catalog jobs, and pin the text of a
// refuted report.
//
//===----------------------------------------------------------------------===//

#include "objects/McsLock.h"
#include "objects/TicketLock.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

/// Explores both sides of \p H with stored outcomes and checks the
/// in-place lookup against contains(Key(R, O)) on every implementation
/// outcome, on its copy with one mapped event's Tid changed, and on its
/// copy with one return value changed.
void expectLookupsAgree(const ObjectHarness &H) {
  MachineConfigPtr Impl = H.implConfig(), Spec = H.specConfig();
  ExploreResult SpecRes = exploreMachine(Spec, H.SpecOpts);
  ASSERT_TRUE(SpecRes.Ok && SpecRes.Complete) << SpecRes.Violation;
  OutcomeSet SpecSet; // the spec side maps through the identity
  for (const Outcome &O : SpecRes.Outcomes)
    SpecSet.insert(O);
  ExploreResult ImplRes = exploreMachine(Impl, H.ImplOpts);
  ASSERT_TRUE(ImplRes.Ok && ImplRes.Complete) << ImplRes.Violation;
  ASSERT_GT(ImplRes.Outcomes.size(), 1u);

  // Storage that already holds events, as the engine's does after a call.
  std::vector<Event> Mapped(64, Event(7, KindId("stale"), {1, 2, 3}));
  for (const Outcome &O : ImplRes.Outcomes) {
    const Outcome Key{H.R.apply(O.FinalLog), O.Returns};
    H.R.applyInto(O.FinalLog, Mapped);
    ASSERT_EQ(Log(Mapped), Key.FinalLog);
    EXPECT_EQ(hashLog(Mapped), hashLog(Key.FinalLog));
    EXPECT_TRUE(SpecSet.contains(Key)) << logToString(O.FinalLog);
    EXPECT_TRUE(SpecSet.contains(Mapped, O.Returns))
        << logToString(O.FinalLog);

    for (size_t I = 0; I != Mapped.size(); ++I) {
      std::vector<Event> Moved = Mapped;
      Moved[I].Tid = 99; // no CPU has this id
      EXPECT_FALSE(SpecSet.contains(Moved, O.Returns)) << I;
      EXPECT_FALSE(SpecSet.contains(Outcome{Log(Moved), O.Returns})) << I;
    }
    for (const auto &[Tid, Rets] : O.Returns)
      for (size_t I = 0; I != Rets.size(); ++I) {
        OutcomeSet::ReturnMap Changed = O.Returns;
        Changed[Tid][I] += 1000;
        EXPECT_FALSE(SpecSet.contains(Mapped, Changed)) << Tid << " " << I;
        EXPECT_FALSE(SpecSet.contains(Outcome{Key.FinalLog, Changed}))
            << Tid << " " << I;
      }
  }
}

} // namespace

TEST(InPlaceMatchTest, AgreesWithTheBuiltKeyOnTicketTwoCpus) {
  expectLookupsAgree(makeTicketLockHarness(2, 1));
}

TEST(InPlaceMatchTest, AgreesWithTheBuiltKeyOnMcsTwoCpus) {
  expectLookupsAgree(makeMcsLockHarness(2, 1));
}

TEST(InPlaceMatchTest, RefutedCounterexampleTextIsPinned) {
  // The stale-ticket RA lock reaches an R-mapped log the spec has, with
  // returns it does not: the report names the implementation log and its
  // mapped form, byte for byte as the Outcome-building match did.
  HarnessOutcome Out =
      runObjectHarness(makeTicketLockHarnessRa(2, 1, /*BrokenGrab=*/true));
  ASSERT_FALSE(Out.Report.Holds);
  auto Joined = [](std::initializer_list<const char *> Events) {
    std::string S;
    for (const char *E : Events)
      S += (S.empty() ? "" : " \xE2\x80\xA2 ") + std::string(E);
    return S;
  };
  const std::string Impl =
      Joined({"1.FAI_t", "1.get_n", "2.FAI_t", "1.hold", "1.f", "2.get_n",
              "1.g", "1.inc_n", "2.hold", "2.f", "2.g", "2.inc_n"});
  const std::string Mapped = Joined(
      {"1.acq", "1.f", "1.g", "1.rel", "2.acq", "2.f", "2.g", "2.rel"});
  EXPECT_EQ(Out.Report.Counterexample,
            "implementation machine violation: no specification behavior "
            "matches implementation outcome\n  impl log:   " +
                Impl + "\n  mapped (R): " + Mapped + "\n  log: " + Impl);
}
