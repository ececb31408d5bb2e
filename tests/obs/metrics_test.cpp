//===- tests/obs/metrics_test.cpp - Observability layer self-tests --------------===//
//
// The metrics/tracing subsystem is itself under test: counters are
// monotone, the disabled mode is a true no-op (no registry entries, no
// trace events, no file), the Chrome trace export is valid JSON of the
// trace_event schema, and the registry survives concurrent hammering
// without losing increments (the CI TSan job runs this suite on purpose).
//
//===-------------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Json.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <thread>
#include <vector>

using namespace ccal;

namespace {

/// Every test runs with a clean registry/trace and restores the previous
/// enablement, so suites sharing the process don't see our metrics.
class ObsTest : public ::testing::Test {
protected:
  void SetUp() override {
    WasEnabled = obs::enabled();
    obs::setEnabled(true);
    obs::metricsReset();
    obs::traceReset();
  }
  void TearDown() override {
    obs::metricsReset();
    obs::traceReset();
    obs::setEnabled(WasEnabled);
  }
  bool WasEnabled = false;
};

} // namespace

TEST_F(ObsTest, CountersAreMonotoneAndAccumulate) {
  EXPECT_EQ(obs::counterValue("t.c"), 0u);
  obs::counterAdd("t.c");
  obs::counterAdd("t.c", 4);
  EXPECT_EQ(obs::counterValue("t.c"), 5u);
  // There is no decrement in the API; re-adding zero keeps the value.
  obs::counterAdd("t.c", 0);
  EXPECT_EQ(obs::counterValue("t.c"), 5u);
}

TEST_F(ObsTest, GaugesOverwriteAndCountersDoNot) {
  obs::gaugeSet("t.g", 7);
  obs::gaugeSet("t.g", -2);
  EXPECT_EQ(obs::gaugeValue("t.g"), -2);
}

TEST_F(ObsTest, DisabledModeCreatesNoRegistryEntries) {
  obs::setEnabled(false);
  obs::counterAdd("off.c", 10);
  obs::gaugeSet("off.g", 1);
  obs::timerRecordNs("off.t", 1);
  { obs::Span S("off.span", "test"); }
  obs::traceInstant("off.instant", "test");
  EXPECT_EQ(obs::metricsCount(), 0u);
  EXPECT_EQ(obs::traceEventCount(), 0u);
  EXPECT_EQ(obs::counterValue("off.c"), 0u);
}

TEST_F(ObsTest, DisabledModeWritesNoTraceFile) {
  obs::setEnabled(false);
  { obs::Span S("off.span", "test"); }
  const std::string Path = "obs_test_disabled_trace.json";
  std::remove(Path.c_str());
  // writeChromeTrace with an empty buffer must not create the file.
  EXPECT_FALSE(obs::writeChromeTrace(Path));
  std::FILE *F = std::fopen(Path.c_str(), "r");
  EXPECT_EQ(F, nullptr);
  if (F)
    std::fclose(F);
}

TEST_F(ObsTest, SpansRecordTimersAndTraceEvents) {
  {
    obs::Span S("t.work", "test");
  }
  obs::traceInstant("t.marker", "test");
  EXPECT_EQ(obs::traceEventCount(), 2u);
  std::vector<obs::MetricSample> All = obs::metricsSnapshot();
  bool SawTimer = false;
  for (const obs::MetricSample &M : All)
    if (M.Name == "t.work" && M.K == obs::MetricSample::Kind::Timer) {
      SawTimer = true;
      EXPECT_EQ(M.Count, 1u);
    }
  EXPECT_TRUE(SawTimer);
}

TEST_F(ObsTest, ChromeTraceJsonMatchesTheTraceEventSchema) {
  {
    obs::Span S("phase \"one\"", "cat\\a"); // escaping must hold up
  }
  obs::traceInstant("marker", "test");
  std::string Json = obs::chromeTraceJson();

  JsonParseResult P = parseJson(Json);
  ASSERT_TRUE(P.Ok) << P.Error << "\n" << Json;
  const JsonValue *Events = P.Value.field("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, JsonValue::Kind::Array);
  ASSERT_EQ(Events->Items.size(), 2u);
  for (const JsonValue &E : Events->Items) {
    ASSERT_EQ(E.K, JsonValue::Kind::Object);
    const JsonValue *Name = E.field("name");
    const JsonValue *Cat = E.field("cat");
    const JsonValue *Ph = E.field("ph");
    const JsonValue *Ts = E.field("ts");
    const JsonValue *Pid = E.field("pid");
    const JsonValue *Tid = E.field("tid");
    ASSERT_NE(Name, nullptr);
    ASSERT_NE(Cat, nullptr);
    ASSERT_NE(Ph, nullptr);
    ASSERT_NE(Ts, nullptr);
    ASSERT_NE(Pid, nullptr);
    ASSERT_NE(Tid, nullptr);
    EXPECT_EQ(Name->K, JsonValue::Kind::String);
    EXPECT_EQ(Cat->K, JsonValue::Kind::String);
    ASSERT_EQ(Ph->K, JsonValue::Kind::String);
    EXPECT_TRUE(Ph->StrVal == "X" || Ph->StrVal == "i") << Ph->StrVal;
    EXPECT_EQ(Ts->K, JsonValue::Kind::Number);
    EXPECT_EQ(Pid->K, JsonValue::Kind::Number);
    EXPECT_EQ(Tid->K, JsonValue::Kind::Number);
    if (Ph->StrVal == "X") {
      const JsonValue *Dur = E.field("dur");
      ASSERT_NE(Dur, nullptr);
      EXPECT_EQ(Dur->K, JsonValue::Kind::Number);
      EXPECT_EQ(Name->StrVal, "phase \"one\"");
    }
  }
}

TEST_F(ObsTest, MetricsJsonParses) {
  obs::counterAdd("j.c", 3);
  obs::gaugeSet("j.g", -1);
  obs::timerRecordNs("j.t", 1000);
  JsonParseResult P = parseJson(obs::metricsJson());
  ASSERT_TRUE(P.Ok) << P.Error;
  const JsonValue *Counters = P.Value.field("counters");
  ASSERT_NE(Counters, nullptr);
  const JsonValue *C = Counters->field("j.c");
  ASSERT_NE(C, nullptr);
  EXPECT_EQ(C->NumVal, 3.0);
}

TEST_F(ObsTest, WriteChromeTraceProducesAParsableFile) {
  { obs::Span S("file.span", "test"); }
  const std::string Path = "obs_test_trace.json";
  ASSERT_TRUE(obs::writeChromeTrace(Path));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  ASSERT_NE(F, nullptr);
  std::string Content;
  char Buf[4096];
  size_t N;
  while ((N = std::fread(Buf, 1, sizeof(Buf), F)) > 0)
    Content.append(Buf, N);
  std::fclose(F);
  std::remove(Path.c_str());
  JsonParseResult P = parseJson(Content);
  EXPECT_TRUE(P.Ok) << P.Error;
}

/// TSan target: concurrent counter increments must be exact and the
/// registry must not race (mutex-guarded map, atomic flag).
TEST_F(ObsTest, ConcurrentIncrementsAreExact) {
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 2000;
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T != Threads; ++T)
    Workers.emplace_back([T] {
      for (unsigned I = 0; I != PerThread; ++I) {
        obs::counterAdd("conc.total");
        obs::counterAdd("conc.t" + std::to_string(T));
        if (I % 256 == 0) {
          obs::Span S("conc.span", "test");
          obs::gaugeSet("conc.g", static_cast<std::int64_t>(I));
        }
      }
    });
  for (std::thread &W : Workers)
    W.join();
  EXPECT_EQ(obs::counterValue("conc.total"),
            static_cast<std::uint64_t>(Threads) * PerThread);
  for (unsigned T = 0; T != Threads; ++T)
    EXPECT_EQ(obs::counterValue("conc.t" + std::to_string(T)), PerThread);
}

/// Concurrent enable/disable races against recording — the flag is the
/// only lock-free part, so TSan gets to see both orders.
TEST_F(ObsTest, TogglingWhileRecordingIsRaceFree) {
  std::thread Toggler([] {
    for (unsigned I = 0; I != 500; ++I)
      obs::setEnabled(I % 2 == 0);
  });
  for (unsigned I = 0; I != 5000; ++I)
    obs::counterAdd("toggle.c");
  Toggler.join();
  obs::setEnabled(true);
  EXPECT_LE(obs::counterValue("toggle.c"), 5000u);
}

// ---- support/Json parser (used by the schema checks above) ----

TEST(JsonTest, ParsesScalarsArraysAndObjects) {
  JsonParseResult P = parseJson(
      R"({"a": 1.5, "b": [true, false, null, "sA"], "c": {"d": -2}})");
  ASSERT_TRUE(P.Ok) << P.Error;
  EXPECT_EQ(P.Value.field("a")->NumVal, 1.5);
  const JsonValue *B = P.Value.field("b");
  ASSERT_EQ(B->Items.size(), 4u);
  EXPECT_EQ(B->Items[0].K, JsonValue::Kind::Bool);
  EXPECT_TRUE(B->Items[0].BoolVal);
  EXPECT_EQ(B->Items[2].K, JsonValue::Kind::Null);
  EXPECT_EQ(B->Items[3].StrVal, "sA");
  EXPECT_EQ(P.Value.field("c")->field("d")->NumVal, -2.0);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_FALSE(parseJson("{").Ok);
  EXPECT_FALSE(parseJson("[1,]").Ok);
  EXPECT_FALSE(parseJson("{\"a\" 1}").Ok);
  EXPECT_FALSE(parseJson("\"unterminated").Ok);
  EXPECT_FALSE(parseJson("{} trailing").Ok);
  EXPECT_FALSE(parseJson("").Ok);
}

// ---- bounded trace ring (drop-oldest + explicit flush) ----

namespace {
/// Restores the default ring capacity even when an assertion bails out.
struct CapacityGuard {
  ~CapacityGuard() { obs::traceSetCapacity(obs::TraceDefaultCapacity); }
};
} // namespace

TEST_F(ObsTest, TraceRingDropsOldestAtCapacity) {
  CapacityGuard Restore;
  obs::traceSetCapacity(4);
  for (int I = 0; I != 10; ++I)
    obs::traceInstant("ev" + std::to_string(I), "test");
  EXPECT_EQ(obs::traceEventCount(), 4u);
  EXPECT_EQ(obs::traceDropped(), 6u);
  EXPECT_EQ(obs::counterValue("obs.trace_dropped"), 6u);
  // The surviving window is the most recent one, in order.
  std::vector<obs::TraceEvent> Events = obs::traceEvents();
  ASSERT_EQ(Events.size(), 4u);
  EXPECT_EQ(Events.front().Name, "ev6");
  EXPECT_EQ(Events.back().Name, "ev9");
}

TEST_F(ObsTest, ShrinkingCapacityDropsExistingOverflow) {
  CapacityGuard Restore;
  for (int I = 0; I != 8; ++I)
    obs::traceInstant("ev" + std::to_string(I), "test");
  EXPECT_EQ(obs::traceDropped(), 0u);
  obs::traceSetCapacity(3);
  EXPECT_EQ(obs::traceEventCount(), 3u);
  EXPECT_EQ(obs::traceDropped(), 5u);
  EXPECT_EQ(obs::traceEvents().front().Name, "ev5");
}

TEST_F(ObsTest, TraceResetClearsTheDroppedTally) {
  CapacityGuard Restore;
  obs::traceSetCapacity(1);
  obs::traceInstant("a", "test");
  obs::traceInstant("b", "test");
  EXPECT_EQ(obs::traceDropped(), 1u);
  obs::traceReset();
  EXPECT_EQ(obs::traceDropped(), 0u);
  EXPECT_EQ(obs::traceEventCount(), 0u);
}

TEST_F(ObsTest, FlushTraceWithoutAConfiguredPathIsFalse) {
  // CCAL_TRACE names no file in the test environment, so the explicit
  // flush reports it had nowhere to write (the daemon treats that as a
  // no-op, not an error).
  obs::traceInstant("ev", "test");
  if (obs::traceFilePath().empty())
    EXPECT_FALSE(obs::flushTrace());
  else
    EXPECT_TRUE(obs::flushTrace()); // env-driven runs do get the file
}

// ---- nesting-depth cap (untrusted socket input must not overflow the
// parser's stack) ----

namespace {
std::string nestedArrays(std::size_t Depth) {
  std::string S(Depth, '[');
  S.append(Depth, ']');
  return S;
}
} // namespace

TEST(JsonTest, DepthAtTheCapParses) {
  std::string Doc = nestedArrays(JsonMaxDepth);
  JsonParseResult P = parseJson(Doc);
  EXPECT_TRUE(P.Ok) << P.Error;

  // Mixed-container nesting counts every level, not just arrays.
  JsonParseResult Mixed = parseJson(R"({"a":[{"b":[1]}]})", 4);
  EXPECT_TRUE(Mixed.Ok) << Mixed.Error;
}

TEST(JsonTest, DepthOnePastTheCapIsAPositionTaggedError) {
  JsonParseResult P = parseJson(nestedArrays(JsonMaxDepth + 1));
  ASSERT_FALSE(P.Ok);
  EXPECT_NE(P.Error.find("depth"), std::string::npos) << P.Error;
  EXPECT_NE(P.Error.find("offset"), std::string::npos) << P.Error;

  JsonParseResult Mixed = parseJson(R"({"a":[{"b":[1]}]})", 3);
  EXPECT_FALSE(Mixed.Ok);
}

TEST(JsonTest, HundredThousandDeepArrayFailsInsteadOfOverflowing) {
  // The motivating attack: before the cap this input recursed 100k
  // frames and took the process down with a stack overflow.
  JsonParseResult P = parseJson(nestedArrays(100000));
  ASSERT_FALSE(P.Ok);
  EXPECT_NE(P.Error.find("depth"), std::string::npos) << P.Error;
}

TEST(JsonTest, DepthCapDoesNotCountSiblings) {
  // 1000 sibling arrays at depth 2: breadth must not trip a depth cap.
  std::string Doc = "[";
  for (int I = 0; I != 1000; ++I)
    Doc += I ? ",[]" : "[]";
  Doc += "]";
  EXPECT_TRUE(parseJson(Doc, 8).Ok);
}
