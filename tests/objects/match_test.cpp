//===- tests/objects/match_test.cpp - The refinement match on a trie ------===//
//
// The outcome-inclusion engine keeps the specification outcomes as a trie
// of their R-mapped logs (OutcomeTrie) and steps it with each event R
// keeps of an implementation log, building no mapped log.  These tests
// hold the trie to the Outcome-building lookup, contains(Key(R, O)), on
// every stored implementation outcome of two catalog jobs, refute logs
// that differ from a spec log only by a missing, an extra or every event,
// and pin the text of a refuted report.
//
//===----------------------------------------------------------------------===//

#include "machine/Soundness.h"
#include "objects/McsLock.h"
#include "objects/TicketLock.h"

#include <gtest/gtest.h>

using namespace ccal;

namespace {

/// Explores both sides of \p H with stored outcomes and checks the trie
/// against contains(Key(R, O)) on every implementation outcome, on its
/// mapped log with one event's Tid changed, and on its returns with one
/// value changed.
void expectLookupsAgree(const ObjectHarness &H) {
  MachineConfigPtr Impl = H.implConfig(), Spec = H.specConfig();
  ExploreResult SpecRes = exploreMachine(Spec, H.SpecOpts);
  ASSERT_TRUE(SpecRes.Ok && SpecRes.Complete) << SpecRes.Violation;
  const EventMap Id = EventMap::identity(); // the spec side's relation
  OutcomeSet SpecSet;
  OutcomeTrie SpecTrie;
  for (const Outcome &O : SpecRes.Outcomes) {
    SpecSet.insert(O);
    SpecTrie.insert(O.FinalLog, Id, O.Returns);
  }
  ExploreResult ImplRes = exploreMachine(Impl, H.ImplOpts);
  ASSERT_TRUE(ImplRes.Ok && ImplRes.Complete) << ImplRes.Violation;
  ASSERT_GT(ImplRes.Outcomes.size(), 1u);

  for (const Outcome &O : ImplRes.Outcomes) {
    const Outcome Key{H.R.apply(O.FinalLog), O.Returns};
    EXPECT_TRUE(SpecSet.contains(Key)) << logToString(O.FinalLog);
    EXPECT_TRUE(SpecTrie.contains(O.FinalLog, H.R, O.Returns))
        << logToString(O.FinalLog);
    // The mapped log itself, under the identity, is the same query.
    EXPECT_TRUE(SpecTrie.contains(Key.FinalLog, Id, O.Returns));

    for (size_t I = 0; I != Key.FinalLog.size(); ++I) {
      std::vector<Event> Moved(Key.FinalLog.begin(), Key.FinalLog.end());
      Moved[I].Tid = 99; // no CPU has this id
      EXPECT_FALSE(SpecTrie.contains(Log(Moved), Id, O.Returns)) << I;
      EXPECT_FALSE(SpecSet.contains(Outcome{Log(Moved), O.Returns})) << I;
    }
    for (const auto &[Tid, Rets] : O.Returns)
      for (size_t I = 0; I != Rets.size(); ++I) {
        ReturnMap Changed = O.Returns;
        Changed[Tid][I] += 1000;
        EXPECT_FALSE(SpecTrie.contains(O.FinalLog, H.R, Changed))
            << Tid << " " << I;
        EXPECT_FALSE(SpecSet.contains(Outcome{Key.FinalLog, Changed}))
            << Tid << " " << I;
      }
  }
}

/// One participant that appends a fixed list of events, one per step,
/// and returns {1: [Ret]}: a machine with exactly one outcome.
class ScriptedMachine {
public:
  ScriptedMachine(std::vector<Event> Script, std::int64_t Ret)
      : Script(std::move(Script)), Ret(Ret) {}
  bool ok() const { return true; }
  const std::string &error() const { return Err; }
  bool allIdle() const { return L.size() == Script.size(); }
  void schedulable(std::vector<ThreadId> &Out) const {
    Out.clear();
    if (!allIdle())
      Out.push_back(1);
  }
  bool step(ThreadId) {
    L.push_back(Script[L.size()]);
    return true;
  }
  const Log &log() const { return L; }
  void returns(ReturnMap &Out) const { Out = {{1, {Ret}}}; }

private:
  std::vector<Event> Script;
  std::int64_t Ret;
  Log L;
  std::string Err; ///< stays empty: a script never faults
};

/// The report of the implementation log \p Impl against the spec log
/// \p Spec, both with returns {1: [0]}, through the identity on each side.
ContextualRefinementReport checkScripted(const std::vector<Event> &Impl,
                                         const std::vector<Event> &Spec) {
  return checkOutcomeInclusion(
      ScriptedMachine(Impl, 0), ScriptedMachine(Spec, 0),
      EventMap::identity(), EventMap::identity(),
      GenericExploreOptions<ScriptedMachine>(),
      GenericExploreOptions<ScriptedMachine>());
}

/// The counterexample the engine gives an unmatched implementation log
/// \p Impl under the identity relation.
std::string unmatchedText(const std::vector<Event> &Impl) {
  return "implementation machine violation: " +
         detail::unmatchedOutcome(Log(Impl), Log(Impl)) +
         "\n  log: " + logToString(Log(Impl));
}

} // namespace

TEST(InPlaceMatchTest, AgreesWithTheBuiltKeyOnTicketTwoCpus) {
  expectLookupsAgree(makeTicketLockHarness(2, 1));
}

TEST(InPlaceMatchTest, AgreesWithTheBuiltKeyOnMcsTwoCpus) {
  expectLookupsAgree(makeMcsLockHarness(2, 1));
}

TEST(InPlaceMatchTest, PrefixExtensionAndEmptyLogAreRefuted) {
  const std::vector<Event> Spec = {Event(1, KindId("acq")),
                                   Event(1, KindId("f"), {7}),
                                   Event(1, KindId("rel"))};
  ContextualRefinementReport Same = checkScripted(Spec, Spec);
  EXPECT_TRUE(Same.Holds) << Same.Counterexample;
  EXPECT_EQ(Same.ObligationsChecked, 1u);

  std::vector<Event> Extended = Spec;
  Extended.push_back(Event(1, KindId("acq")));
  for (const std::vector<Event> &Impl :
       {std::vector<Event>(Spec.begin(), Spec.end() - 1), Extended,
        std::vector<Event>()}) {
    ContextualRefinementReport Rep = checkScripted(Impl, Spec);
    EXPECT_FALSE(Rep.Holds) << logToString(Log(Impl));
    EXPECT_EQ(Rep.Counterexample, unmatchedText(Impl));
  }
  // An event that differs only in its arguments is a different edge.
  std::vector<Event> OtherArg = Spec;
  OtherArg[1].Args = {8};
  EXPECT_EQ(checkScripted(OtherArg, Spec).Counterexample,
            unmatchedText(OtherArg));
}

TEST(InPlaceMatchTest, RelationMappingHoldToRelIsRefuted) {
  // R1 maps i.hold to i.acq; a relation that maps it to i.rel instead
  // gives every implementation log two releases per acquisition, which no
  // spec log has.
  ObjectHarness H = makeTicketLockHarness(2, 1);
  const EventMap R1 = H.R;
  const EventMap HoldAsRel(
      "R1 with hold as rel", [R1](const Event &E) -> std::optional<Event> {
        if (E.Kind == KindId("hold"))
          return Event(E.Tid, KindId("rel"));
        return R1.map(E);
      });
  ContextualRefinementReport Rep = checkContextualRefinement(
      H.implConfig(), H.specConfig(), HoldAsRel, H.ImplOpts, H.SpecOpts);
  EXPECT_FALSE(Rep.Holds);
  EXPECT_TRUE(Rep.SpecComplete);
  EXPECT_NE(Rep.Counterexample.find("no specification behavior matches"),
            std::string::npos)
      << Rep.Counterexample;
  EXPECT_NE(Rep.Counterexample.find("1.rel \xE2\x80\xA2 1.f"),
            std::string::npos)
      << Rep.Counterexample;
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
