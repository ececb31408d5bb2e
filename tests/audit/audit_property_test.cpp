//===- tests/audit/audit_property_test.cpp - Auditor property tests ----------===//
//
// Randomized end-to-end properties of the trace auditor: a generator
// emits histories that are linearizable BY CONSTRUCTION (built in
// linearization order, with each operation's recorded interval containing
// its linearization time), the auditor must PASS every one (positive
// control), and two targeted corruptions — one mutated return value, and
// one return-value swap between two operations the timestamps strictly
// order — must each flip the verdict to FAIL (negative controls: a
// checker that cannot refute a planted bug is as useless as one that
// refutes correct histories).
//
// Failures dump the full trace JSON via tests/common/fuzz_support.h
// (kinds audit_pass / audit_fail, body = the trace file format), replay
// with --ccal-fuzz-replay=<file>, and past failures live in tests/corpus/.
//
// The file ends with the live half: real contended runtime objects whose
// recorded traces must audit PASS, and the RtBrokenLock seeded-bug
// harness the auditor must catch red-handed.
//
//===----------------------------------------------------------------------===//

#include "audit/AuditChecker.h"
#include "audit/Recorder.h"
#include "audit/Trace.h"
#include "runtime/RtBrokenLock.h"
#include "runtime/RtSharedQueue.h"
#include "runtime/RtTicketLock.h"
#include "tests/common/fuzz_support.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

using namespace ccal;
using namespace ccal::audit;

namespace {

/// Builds a linearizable history for \p Spec ("" = pick one from the
/// seed): operations are generated already in a valid linearization
/// order, operation k gets linearization time L = 100*(k+1), its
/// invocation lands in (last response of its thread, L] and its response
/// in [L, L+99].  Every recorded interval therefore contains its
/// linearization point, per-thread intervals never overlap, and the
/// response extension (< the 100ns step) keeps every thread eligible for
/// the next operation while still overlapping neighbors often enough to
/// exercise multi-operation windows.
Trace genHistory(std::uint64_t Seed, std::string Spec = "") {
  std::mt19937_64 Rng(Seed ^ 0x9e3779b97f4a7c15ull);
  if (Spec.empty()) {
    const char *Specs[] = {"ticket", "lock", "queue"};
    Spec = Specs[Rng() % 3];
  }
  const unsigned Threads = 2 + Rng() % 3; // 2..4
  const unsigned Ops = 20 + Rng() % 41;   // 20..60

  Trace Tr;
  Tr.Spec = Spec;
  std::vector<std::uint64_t> LastResp(Threads + 1, 0);
  // Sequential spec state, tracked alongside generation.
  std::uint64_t Holder = 0, Acqs = 0, Rels = 0;
  std::deque<std::int64_t> Items;
  std::int64_t NextVal = 1;
  std::uint64_t LastEnqResp = 0;

  for (unsigned K = 0; K != Ops; ++K) {
    const std::uint64_t L = 100 * (K + 1);
    OpRecord R;
    R.Obj = 0xA0D17;
    if (Spec == "queue") {
      R.Tid = 1 + Rng() % Threads;
      if (Rng() % 5 < 3) {
        R.M = Method::Enq;
        R.HasArg = true;
        R.Arg = NextVal++;
        R.Ret = 0;
        Items.push_back(R.Arg);
      } else {
        R.M = Method::Deq;
        if (Items.empty()) {
          R.Ret = -1;
        } else {
          R.Ret = Items.front();
          Items.pop_front();
        }
      }
    } else { // lock-shaped: acquire and release must alternate
      if (Holder) {
        R.Tid = Holder;
        R.M = Method::Rel;
        R.Ret = Spec == "ticket" ? static_cast<std::int64_t>(Rels++) : 0;
        Holder = 0;
      } else {
        R.Tid = 1 + Rng() % Threads;
        R.M = Method::Acq;
        R.Ret = Spec == "ticket" ? static_cast<std::int64_t>(Acqs++) : 0;
        Holder = R.Tid;
      }
    }
    std::uint64_t Lo = LastResp[R.Tid]; // always < L by construction
    // Keep enqueues timestamp-ordered among THEMSELVES (they still overlap
    // dequeues freely): concurrent enqueues whose values both survive
    // leave a witness-dependent queue order, which the checker handles by
    // merging windows — correct, but the merged search is exactly what
    // this deterministic positive control must not depend on.  The merge
    // path has its own handcrafted regression in audit_checker_test.cpp.
    if (R.M == Method::Enq)
      Lo = std::max(Lo, LastEnqResp);
    R.InvokeNs = Lo + 1 + Rng() % (L - Lo);
    R.ResponseNs = L + Rng() % 100;
    LastResp[R.Tid] = R.ResponseNs;
    if (R.M == Method::Enq)
      LastEnqResp = R.ResponseNs;
    Tr.Records.push_back(R);
  }
  return Tr;
}

/// Seeds-per-test budget; CI's fuzz job raises it via CCAL_FUZZ_HISTORIES.
unsigned historyBudget() {
  if (const char *Env = std::getenv("CCAL_FUZZ_HISTORIES"))
    if (unsigned N = static_cast<unsigned>(std::strtoul(Env, nullptr, 10)))
      return N;
  return 25;
}

class AuditPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

} // namespace

TEST_P(AuditPropertyTest, GeneratedHistoriesAuditPass) {
  const unsigned Budget = historyBudget();
  for (unsigned I = 0; I != Budget; ++I) {
    std::uint64_t Seed = GetParam() * 1000 + I;
    Trace T = genHistory(Seed);
    AuditReport R = auditTrace(T, T.Spec);
    if (R.Outcome != AuditOutcome::Pass) {
      std::string Dump = test::dumpFailure("audit_pass", Seed, traceToJson(T));
      FAIL() << "legal " << T.Spec << " history audited "
             << outcomeName(R.Outcome) << ": " << R.Detail
             << "\nseed: " << Seed << "\ndump: " << Dump;
    }
    EXPECT_EQ(R.OpsAudited, T.Records.size());
    EXPECT_GE(R.Windows, 1u);
  }
}

TEST_P(AuditPropertyTest, MutatedReturnValueIsRefuted) {
  // Bump one return by +1000: no generated history uses values that
  // large, so under every spec the mutated response is unsatisfiable in
  // EVERY interleaving — the auditor must say FAIL, not UNRESOLVED.
  const unsigned Budget = historyBudget();
  for (unsigned I = 0; I != Budget; ++I) {
    std::uint64_t Seed = GetParam() * 1000 + I;
    Trace T = genHistory(Seed);
    std::mt19937_64 Rng(Seed * 31 + 7);
    T.Records[Rng() % T.Records.size()].Ret += 1000;
    AuditReport R = auditTrace(T, T.Spec);
    if (R.Outcome != AuditOutcome::Fail) {
      std::string Dump = test::dumpFailure("audit_fail", Seed, traceToJson(T));
      FAIL() << "mutated " << T.Spec << " history audited "
             << outcomeName(R.Outcome) << " (want fail): " << R.Detail
             << "\nseed: " << Seed << "\ndump: " << Dump;
    }
    EXPECT_FALSE(R.WitnessOps.empty())
        << "a refutation must carry its witness window";
  }
}

TEST_P(AuditPropertyTest, RealTimeOrderViolationIsRefuted) {
  // Swap the tickets of two acquires whose intervals the timestamps
  // strictly order (resp(A) < inv(B)).  The value multiset stays legal —
  // only a checker that actually derives real-time precedence (not mere
  // sequential consistency) can refute the swapped history.
  const unsigned Budget = historyBudget();
  unsigned Swapped = 0;
  for (unsigned I = 0; I != Budget; ++I) {
    std::uint64_t Seed = GetParam() * 1000 + I;
    Trace T = genHistory(Seed, "ticket");
    std::vector<std::size_t> AcqIdx;
    for (std::size_t J = 0; J != T.Records.size(); ++J)
      if (T.Records[J].M == Method::Acq)
        AcqIdx.push_back(J);
    std::size_t A = 0, B = 0;
    bool Found = false;
    for (std::size_t X = 0; X + 1 < AcqIdx.size() && !Found; ++X)
      for (std::size_t Y = X + 1; Y < AcqIdx.size() && !Found; ++Y)
        if (T.Records[AcqIdx[X]].ResponseNs < T.Records[AcqIdx[Y]].InvokeNs) {
          A = AcqIdx[X];
          B = AcqIdx[Y];
          Found = true;
        }
    if (!Found)
      continue; // every pair overlapped; nothing to violate
    ++Swapped;
    std::swap(T.Records[A].Ret, T.Records[B].Ret);
    AuditReport R = auditTrace(T, T.Spec);
    if (R.Outcome != AuditOutcome::Fail) {
      std::string Dump = test::dumpFailure("audit_fail", Seed, traceToJson(T));
      FAIL() << "order-swapped ticket history audited "
             << outcomeName(R.Outcome) << " (want fail): " << R.Detail
             << "\nseed: " << Seed << "\ndump: " << Dump;
    }
  }
  EXPECT_GE(Swapped, Budget / 2)
      << "generator produced too few strictly-ordered acquire pairs for "
         "the control to mean anything";
}

INSTANTIATE_TEST_SUITE_P(Seeds, AuditPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

namespace {

/// Shared fixture for the live-object tests: recorder off and empty
/// before and after, with a small ring so round-spawned threads stay
/// cheap (each registered thread keeps its ring until reset).
class AuditLiveTest : public ::testing::Test {
protected:
  void SetUp() override {
    audit::setEnabled(false);
    audit::resetForTest();
    audit::setCapacity(1024);
  }
  void TearDown() override {
    audit::setEnabled(false);
    audit::resetForTest();
    audit::setCapacity(std::size_t(1) << 16);
  }
};

/// Runs \p Rounds rounds of \p Threads threads each doing \p Body(tid),
/// joining between rounds (the joins are the quiescent cuts that keep
/// audit windows bounded), collecting each round into \p Out.
template <typename Fn>
void runRounds(int Rounds, int Threads, Trace &Out, Fn Body) {
  for (int R = 0; R != Rounds; ++R) {
    std::vector<std::thread> Ws;
    for (int T = 0; T != Threads; ++T)
      Ws.emplace_back(Body, T);
    for (std::thread &W : Ws)
      W.join();
    Collected C = audit::collect();
    Out.Records.insert(Out.Records.end(), C.Records.begin(), C.Records.end());
    Out.Dropped = C.DroppedTotal;
  }
}

} // namespace

TEST_F(AuditLiveTest, ContendedTicketLockAuditsPass) {
  audit::setEnabled(true);
  rt::TicketLock<false> L;
  Trace Tr;
  Tr.Spec = "ticket";
  runRounds(6, 4, Tr, [&L](int) {
    for (int I = 0; I != 25; ++I) {
      L.acquire();
      L.release();
    }
  });
  audit::setEnabled(false);
  ASSERT_EQ(Tr.Records.size(), 6u * 4 * 25 * 2);
  ASSERT_EQ(Tr.Dropped, 0u);
  AuditReport R = auditTrace(Tr, Tr.Spec);
  EXPECT_EQ(R.Outcome, AuditOutcome::Pass) << R.Detail;
  EXPECT_EQ(R.OpsAudited, Tr.Records.size());
}

TEST_F(AuditLiveTest, ContendedSharedQueueAuditsPass) {
  audit::setEnabled(true);
  rt::SharedQueue<rt::TicketLock<false, false>> Q;
  Trace Tr;
  Tr.Spec = "queue";
  runRounds(6, 4, Tr, [&Q](int T) {
    for (int I = 0; I != 5; ++I) {
      Q.enqueue(T * 1000 + I);
      (void)Q.dequeue();
    }
  });
  audit::setEnabled(false);
  ASSERT_EQ(Tr.Records.size(), 6u * 4 * 5 * 2);
  ASSERT_EQ(Tr.Dropped, 0u);
  AuditReport R = auditTrace(Tr, Tr.Spec);
  EXPECT_EQ(R.Outcome, AuditOutcome::Pass) << R.Detail;
}

TEST_F(AuditLiveTest, AuditorCatchesBrokenLockRedHanded) {
  // The seeded torn-ticket bug (runtime/RtBrokenLock.h) hands duplicate
  // tickets to racing threads.  Hammer the lock in joined rounds until a
  // duplicate lands in the record (near-certain within a few rounds; the
  // cap is pure paranoia), then the auditor must refute the cumulative
  // trace with a concrete witness window.  If this test starts failing
  // at "never produced a duplicate", the scheduler got friendlier —
  // raise the rounds, don't touch the lock.
  audit::setEnabled(true);
  rt::BrokenTicketLock L;
  Trace Tr;
  Tr.Spec = "ticket";
  bool Duplicate = false;
  for (int Round = 0; Round != 200 && !Duplicate; ++Round) {
    runRounds(1, 4, Tr, [&L](int) {
      for (int I = 0; I != 50; ++I) {
        L.acquire();
        L.release();
      }
    });
    std::map<std::int64_t, int> Tickets;
    for (const OpRecord &R : Tr.Records)
      if (R.M == Method::Acq && ++Tickets[R.Ret] > 1)
        Duplicate = true;
  }
  audit::setEnabled(false);
  ASSERT_TRUE(Duplicate)
      << "broken lock never produced a duplicate ticket in "
      << Tr.Records.size() << " records — widen the hammer";
  ASSERT_EQ(Tr.Dropped, 0u);

  AuditReport R = auditTrace(Tr, Tr.Spec);
  EXPECT_EQ(R.Outcome, AuditOutcome::Fail)
      << "auditor must catch the seeded bug, got "
      << outcomeName(R.Outcome) << ": " << R.Detail;
  EXPECT_FALSE(R.WitnessOps.empty());
  EXPECT_NE(R.Detail.find("no linearization"), std::string::npos) << R.Detail;
}

/// Replays a dumped audit trace when --ccal-fuzz-replay=<file> names an
/// audit_pass / audit_fail dump; skipped otherwise.
TEST(FuzzReplayTest, ReplaysDumpedAuditTrace) {
  const std::string &Path = test::fuzzReplayPath();
  if (Path.empty())
    GTEST_SKIP() << "no --ccal-fuzz-replay=<file> given";
  test::FuzzDump D;
  std::string Err;
  ASSERT_TRUE(test::readFuzzDump(Path, D, Err)) << Err;
  if (D.Kind != "audit_pass" && D.Kind != "audit_fail")
    GTEST_SKIP() << "dump kind '" << D.Kind << "' is not handled here";
  Trace T;
  ASSERT_TRUE(traceFromJson(D.Body, T, Err)) << Err;
  AuditReport R = auditTrace(T, T.Spec);
  EXPECT_EQ(R.Outcome, D.Kind == "audit_pass" ? AuditOutcome::Pass
                                              : AuditOutcome::Fail)
      << R.Detail;
}

/// Checked-in past failures keep holding — the audit half of the
/// regression corpus.
TEST(FuzzCorpusTest, PastAuditTracesKeepTheirVerdicts) {
  for (const char *Kind : {"audit_pass", "audit_fail"}) {
    std::vector<std::string> Files = test::corpusFiles(CCAL_CORPUS_DIR, Kind);
    ASSERT_FALSE(Files.empty())
        << "no " << Kind << " corpus entries under " << CCAL_CORPUS_DIR;
    for (const std::string &Path : Files) {
      test::FuzzDump D;
      std::string Err;
      ASSERT_TRUE(test::readFuzzDump(Path, D, Err)) << Err;
      Trace T;
      ASSERT_TRUE(traceFromJson(D.Body, T, Err)) << Path << ": " << Err;
      AuditReport R = auditTrace(T, T.Spec);
      EXPECT_EQ(R.Outcome, std::string(Kind) == "audit_pass"
                               ? AuditOutcome::Pass
                               : AuditOutcome::Fail)
          << Path << ": " << R.Detail;
    }
  }
}
