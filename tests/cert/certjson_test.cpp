//===- tests/cert/certjson_test.cpp - Certificate JSON round trips -------------===//
//
// Property-based hardening of the certificate serializer: randomly composed
// Fig. 9 derivation trees (random rules, fanouts, counters, and strings
// exercising every JSON escape class) must survive serialize -> parse ->
// serialize as a byte-level fixed point, and the parsed tree must render
// (tree()) identically to the original.  Failures dump the serialized
// derivation (replay the seed from the header).  Also home of the strict-
// reader rejection checks and the integer-exactness tests the store's
// evidence counters rely on.
//
//===----------------------------------------------------------------------===//

#include "cert/CertJson.h"

#include "machine/Soundness.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "tests/common/fuzz_support.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

using namespace ccal;
using namespace ccal::cert;

namespace {

const char *const Rules[] = {"Fun",   "Vcomp",    "Hcomp",          "Wk",
                             "Pcomp", "Soundness", "MultithreadLink"};

/// Random strings drawn to hit every escape class the writer handles:
/// quotes, backslashes, control characters, and plain text.
std::string randomName(Rng &R) {
  static const char *const Pool[] = {
      "L0[1]",           "M_ticket",       "quoted \"name\"",
      "back\\slash",     "line\nbreak",    "tab\there",
      "ctrl\x01\x1f",    "",               "plain",
      "R1 o R2",
  };
  return Pool[R.below(sizeof(Pool) / sizeof(Pool[0]))];
}

std::shared_ptr<RefinementCertificate> randomCert(Rng &R, unsigned Depth) {
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = Rules[R.below(sizeof(Rules) / sizeof(Rules[0]))];
  C->Underlay = randomName(R);
  C->Module = randomName(R);
  C->Overlay = randomName(R);
  C->Relation = randomName(R);
  C->CoverageComplete = R.chance(1, 2);
  // Valid=true with CoverageComplete=false is rejected by the *store*, but
  // the serializer must round-trip every representable tree faithfully.
  C->Valid = R.chance(1, 2);
  C->Coverage = randomName(R);
  // Counters span the full honest domain [0, INT64_MAX]; values beyond it
  // are unreachable for real evidence counts (see jsonUInt) and the strict
  // reader rejects them by design.
  C->Obligations = R.next() >> 1;
  C->Runs = R.next() >> 1;
  C->Moves = R.next() >> 1;
  C->Invariants = R.next() >> 1;
  if (R.chance(1, 3))
    C->Notes.push_back(randomName(R));
  if (Depth > 0) {
    std::uint64_t Fanout = R.below(3);
    for (std::uint64_t I = 0; I != Fanout; ++I)
      C->Premises.push_back(randomCert(R, Depth - 1));
  }
  return C;
}

} // namespace

TEST(CertJsonPropertyTest, SerializeParseSerializeIsAFixedPoint) {
  const unsigned Trials = 200;
  for (unsigned T = 0; T != Trials; ++T) {
    std::uint64_t Seed = 0xcafe0000 + T;
    Rng R(Seed);
    std::shared_ptr<RefinementCertificate> C = randomCert(R, 3);

    std::string First = jsonToString(certToJson(*C));
    JsonParseResult Parsed = parseJson(First);
    if (!Parsed) {
      test::dumpFailure("certjson", Seed, First);
      FAIL() << "serialized derivation does not parse: " << Parsed.Error;
    }
    std::string Error;
    CertPtr Back = certFromJson(Parsed.Value, Error);
    if (!Back) {
      test::dumpFailure("certjson", Seed, First);
      FAIL() << "strict reader rejected its own writer's output: " << Error;
    }
    std::string Second = jsonToString(certToJson(*Back));
    if (First != Second || C->tree() != Back->tree()) {
      test::dumpFailure("certjson", Seed, First);
      ASSERT_EQ(First, Second) << "round trip is not a byte fixed point";
      ASSERT_EQ(C->tree(), Back->tree());
    }
    // The derivation-wide evidence totals survive too (premise recursion).
    EXPECT_EQ(C->totalObligations(), Back->totalObligations());
    EXPECT_EQ(C->totalRuns(), Back->totalRuns());
  }
}

TEST(CertJsonTest, StrictReaderRejectsMissingAndIllTypedFields) {
  RefinementCertificate C;
  C.Rule = "Fun";
  C.Valid = true;
  C.CoverageComplete = true;
  JsonValue V = certToJson(C);
  std::string Error;
  ASSERT_NE(certFromJson(V, Error), nullptr) << Error;

  JsonValue Missing = V;
  Missing.Fields.erase("valid");
  EXPECT_EQ(certFromJson(Missing, Error), nullptr);

  JsonValue IllTyped = V;
  IllTyped.Fields["runs"] = jsonStr("not a number");
  EXPECT_EQ(certFromJson(IllTyped, Error), nullptr);

  JsonValue BadPremise = V;
  BadPremise.Fields["premises"] = jsonArray({jsonBool(true)});
  EXPECT_EQ(certFromJson(BadPremise, Error), nullptr);
}

TEST(CertJsonTest, EventAndLogRoundTrip) {
  Log L = {Event(1, KindId("FAI_t")), Event(2, KindId("done"), {-7, 42}),
           Event(0, KindId("weird \"kind\"\n"), {INT64_MIN, INT64_MAX})};
  JsonValue V = logToJson(L);
  Log Back;
  ASSERT_TRUE(logFromJson(V, Back));
  EXPECT_EQ(L, Back);

  Event E;
  EXPECT_FALSE(eventFromJson(jsonStr("not an event"), E));
  EXPECT_FALSE(eventFromJson(jsonArray({jsonInt(1)}), E));
}

TEST(CertJsonTest, RefinePayloadRoundTripsAndRejectsNegativeCounters) {
  ContextualRefinementReport R;
  R.Holds = false;
  R.SpecComplete = true;
  R.ImplComplete = true;
  R.Coverage = "exhaustive";
  R.ImplOutcomes = 3;
  R.SpecOutcomes = 2;
  R.ObligationsChecked = 1;
  R.SchedulesExplored = std::uint64_t{1} << 62;
  R.StatesExplored = 12345;
  R.Counterexample = "no specification behavior matches \"x\"\n";
  JsonValue V = refinementToPayload(R);
  ContextualRefinementReport Back;
  ASSERT_TRUE(refinementFromPayload(V, Back));
  EXPECT_EQ(Back.Holds, R.Holds);
  EXPECT_EQ(Back.SpecComplete, R.SpecComplete);
  EXPECT_EQ(Back.ImplComplete, R.ImplComplete);
  EXPECT_EQ(Back.Coverage, R.Coverage);
  EXPECT_EQ(Back.ImplOutcomes, R.ImplOutcomes);
  EXPECT_EQ(Back.SpecOutcomes, R.SpecOutcomes);
  EXPECT_EQ(Back.ObligationsChecked, R.ObligationsChecked);
  EXPECT_EQ(Back.SchedulesExplored, R.SchedulesExplored);
  EXPECT_EQ(Back.StatesExplored, R.StatesExplored);
  EXPECT_EQ(Back.Counterexample, R.Counterexample);
  EXPECT_EQ(jsonToString(refinementToPayload(Back)), jsonToString(V));

  // A tampered counter must be rejected, not wrapped to 2^64 - 1.
  JsonValue Negative = V;
  Negative.Fields["obligations"] = jsonInt(-1);
  EXPECT_FALSE(refinementFromPayload(Negative, Back));

  JsonValue Missing = V;
  Missing.Fields.erase("states");
  EXPECT_FALSE(refinementFromPayload(Missing, Back));

  JsonValue IllTyped = V;
  IllTyped.Fields["holds"] = jsonStr("true");
  EXPECT_FALSE(refinementFromPayload(IllTyped, Back));
}

TEST(CertJsonTest, ImplicationRoundTrip) {
  ImplicationReport R;
  R.Premise = "mutex";
  R.Conclusion = "no-double-hold";
  R.LogsChecked = 17;
  R.Holds = false;
  R.Counterexample = {Event(1, KindId("hold")), Event(2, KindId("hold"))};
  ImplicationReport Back;
  ASSERT_TRUE(implicationFromJson(implicationToJson(R), Back));
  EXPECT_EQ(R.Premise, Back.Premise);
  EXPECT_EQ(R.Conclusion, Back.Conclusion);
  EXPECT_EQ(R.LogsChecked, Back.LogsChecked);
  EXPECT_EQ(R.Holds, Back.Holds);
  EXPECT_EQ(R.Counterexample, Back.Counterexample);
}

TEST(CertJsonTest, EvidenceCountersSurviveBeyondDoublePrecision) {
  // 2^53 + 1 is the first integer a double silently rounds; the store's
  // obligation counters must not pass through one.
  RefinementCertificate C;
  C.Rule = "Fun";
  C.Obligations = (1ULL << 53) + 1;
  C.Runs = 0xffffffffffffffffULL >> 1; // INT64_MAX
  std::string Text = jsonToString(certToJson(C));
  JsonParseResult Parsed = parseJson(Text);
  ASSERT_TRUE(static_cast<bool>(Parsed)) << Parsed.Error;
  std::string Error;
  CertPtr Back = certFromJson(Parsed.Value, Error);
  ASSERT_NE(Back, nullptr) << Error;
  EXPECT_EQ(Back->Obligations, (1ULL << 53) + 1);
  EXPECT_EQ(Back->Runs, static_cast<std::uint64_t>(INT64_MAX));
}

TEST(CertJsonTest, JsonIntegersParseExactAndRenderWithoutDecimal) {
  JsonParseResult P = parseJson("[9007199254740993, -5, 2.5, 1e3]");
  ASSERT_TRUE(static_cast<bool>(P)) << P.Error;
  ASSERT_EQ(P.Value.Items.size(), 4u);
  EXPECT_TRUE(P.Value.Items[0].IsInt);
  EXPECT_EQ(P.Value.Items[0].IntVal, 9007199254740993LL);
  EXPECT_TRUE(P.Value.Items[1].IsInt);
  EXPECT_EQ(P.Value.Items[1].IntVal, -5);
  EXPECT_FALSE(P.Value.Items[2].IsInt);
  EXPECT_FALSE(P.Value.Items[3].IsInt); // exponent form stays a double
  EXPECT_EQ(jsonToString(P.Value.Items[0]), "9007199254740993");
}
