//===- tests/cert/certgolden_test.cpp - Byte-pinned certificate goldens -------===//
//
// The interning refactor's compatibility contract: event kinds are integer
// ids in memory, but everything that leaves the process — serialized logs
// in certificates, content-addressed store keys — still goes through the
// kind *string*, so stored certificates from before the change verify
// byte-identically after it.  These goldens were captured from the
// pre-interning representation (std::string Event::Kind, plain
// std::vector<Event> log); any byte difference here means existing
// certificate stores would silently miss (or worse, collide).
//
//===----------------------------------------------------------------------===//

#include "cert/CertJson.h"

#include "cert/CertKey.h"
#include "cert/CertStore.h"
#include "machine/Soundness.h"
#include "objects/McsLock.h"
#include "objects/TicketLock.h"
#include "support/Json.h"
#include "threads/Linking.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <string>

using namespace ccal;
using namespace ccal::cert;

namespace {

/// A log exercising every serialization shape: sched events, no-arg and
/// multi-arg kinds, negative numbers, and both int64 extremes.
Log makeGoldenLog() {
  Log L;
  L.push_back(Event::sched(1));
  L.push_back(Event(1, KindId("FAI_t")));
  L.push_back(Event(1, KindId("hold")));
  L.push_back(Event(2, KindId("FAI_t"), {7, -3}));
  L.push_back(Event(1, KindId("f"), {0}));
  L.push_back(Event(1, KindId("g")));
  L.push_back(Event(1, KindId("inc_n")));
  L.push_back(Event::sched(2));
  L.push_back(Event(2, KindId("push"),
                    {42, std::numeric_limits<std::int64_t>::max()}));
  L.push_back(Event(3, KindId("pop"),
                    {std::numeric_limits<std::int64_t>::min()}));
  L.push_back(Event(2, KindId("acq")));
  L.push_back(Event(2, KindId("rel")));
  return L;
}

/// Content hash of stored or rendered bytes.
std::uint64_t bytesHash(const std::string &Bytes) {
  return Hasher().str(Bytes).value();
}

/// Runs \p Check against a fresh store and returns the single entry it
/// wrote, byte for byte; \p Stem, when given, receives its file stem (the
/// checker and the key hash).
std::string storedEntry(const std::string &Name,
                        const std::function<void()> &Check,
                        std::string *Stem = nullptr) {
  namespace fs = std::filesystem;
  const fs::path Dir =
      fs::path(::testing::TempDir()) / ("ccal_golden_" + Name);
  fs::remove_all(Dir);
  setStoreDir(Dir.string());
  Check();
  setStoreDir("");
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E : fs::directory_iterator(Dir))
    Files.push_back(E.path());
  EXPECT_EQ(Files.size(), 1u) << Name;
  std::string Bytes;
  if (!Files.empty()) {
    if (Stem)
      *Stem = Files.front().filename().string().substr(
          0, Files.front().filename().string().find('.'));
    std::ifstream In(Files.front(), std::ios::binary);
    std::ostringstream SS;
    SS << In.rdbuf();
    Bytes = SS.str();
  }
  fs::remove_all(Dir);
  return Bytes;
}

} // namespace

TEST(CertGoldenTest, LogJsonBytesMatchPreInterningCapture) {
  // Captured from the seed (string-kinded) serializer on the same log.
  const std::string Golden =
      "[[1,\"sched\",[]],[1,\"FAI_t\",[]],[1,\"hold\",[]],"
      "[2,\"FAI_t\",[7,-3]],[1,\"f\",[0]],[1,\"g\",[]],[1,\"inc_n\",[]],"
      "[2,\"sched\",[]],[2,\"push\",[42,9223372036854775807]],"
      "[3,\"pop\",[-9223372036854775808]],[2,\"acq\",[]],[2,\"rel\",[]]]";
  EXPECT_EQ(jsonToString(logToJson(makeGoldenLog())), Golden);
}

TEST(CertGoldenTest, LogJsonRoundTripsThroughInternedEvents) {
  Log L = makeGoldenLog();
  Log Back;
  ASSERT_TRUE(logFromJson(logToJson(L), Back));
  EXPECT_EQ(Back, L);
  EXPECT_EQ(jsonToString(logToJson(Back)), jsonToString(logToJson(L)));
}

TEST(CertGoldenTest, CertKeyLogHashMatchesPreInterningCapture) {
  // keyAddLog hashes the kind *string* (not the id, not the cached
  // strHash seed path), so store addresses survive the representation
  // change.  Captured from the seed Hasher on this log.
  Log L;
  L.push_back(Event::sched(1));
  L.push_back(Event(1, KindId("FAI_t")));
  L.push_back(Event(2, KindId("hold"), {7, -3}));
  L.push_back(Event(1, KindId("inc_n"), {0}));
  Hasher H;
  keyAddLog(H, L);
  EXPECT_EQ(H.value(), 0x434aa5b685e27c8bULL);
}

TEST(CertGoldenTest, EventJsonUsesStringsNotIds) {
  // Intern two fresh kinds in reverse lexicographic order: the serialized
  // form must depend only on the strings.
  Event B(1, KindId("zz_golden_kind"));
  Event A(1, KindId("aa_golden_kind"));
  EXPECT_EQ(jsonToString(eventToJson(A)), "[1,\"aa_golden_kind\",[]]");
  EXPECT_EQ(jsonToString(eventToJson(B)), "[1,\"zz_golden_kind\",[]]");
}

// Stored-entry pins.  A stored entry must never change bytes without a
// version bump, or existing stores would serve answers to a different
// question.  Each pin notes the size and hash its previous version had.

TEST(CertGoldenTest, RefineHoldsEntryBytesArePinned) {
  // The catalog job ticket.1cpu.2r.  refine-v1 entries: 961 bytes, hash
  // 0x34e865021a9483ec.
  std::string Bytes = storedEntry("refine_holds", [] {
    EXPECT_TRUE(runObjectHarness(makeTicketLockHarness(1, 2)).Report.Holds);
  });
  EXPECT_NE(Bytes.find("\"version\":\"refine-v2\""), std::string::npos)
      << Bytes;
  EXPECT_EQ(Bytes.size(), 574u);
  EXPECT_EQ(bytesHash(Bytes), 0x07f8f3866362a66eULL) << Bytes;
}

TEST(CertGoldenTest, RefineRefutedEntryBytesArePinned) {
  // The broken release/acquire ticket grab.  A refuted check has
  // incomplete coverage, so the store declines to persist it; pin what the
  // checker hands the store instead: the certificate and the payload.  The
  // refine-v1 payload, corpus included, was 25,389 bytes with hash
  // 0x08e5efba77d60443; the certificate is unchanged.
  HarnessOutcome Out = certifyTicketLockRa(2, 1, /*BrokenGrab=*/true);
  ASSERT_FALSE(Out.Report.Holds);
  ASSERT_TRUE(Out.Layer.Cert);
  std::string Payload = jsonToString(refinementToPayload(Out.Report));
  std::string Cert = jsonToString(certToJson(*Out.Layer.Cert));
  EXPECT_EQ(Payload.size(), 614u);
  EXPECT_EQ(bytesHash(Payload), 0x504b6e26e4846a56ULL) << Payload;
  EXPECT_EQ(Cert.size(), 696u);
  EXPECT_EQ(bytesHash(Cert), 0x0c3afd541d33d21fULL) << Cert;
}

TEST(CertGoldenTest, LinkEntryBytesArePinned) {
  // Thm 5.1 on LinkingSetup{2, 1}.  link-v1 entries (590 bytes, hash
  // 0x5a41b382b4e63207) carried no corpus field; link-v2 entries (602
  // bytes, hash 0x3e8b8af496721e90) were encoded by the shared refinement
  // codec, which added an empty one; link-v3 follows that codec dropping
  // it again.
  std::string Bytes = storedEntry("link", [] {
    EXPECT_TRUE(
        checkMultithreadedLinking(LinkingSetup{2, 1}).Refinement.Holds);
  });
  EXPECT_NE(Bytes.find("\"version\":\"link-v3\""), std::string::npos)
      << Bytes;
  EXPECT_EQ(Bytes.size(), 590u);
  EXPECT_EQ(bytesHash(Bytes), 0x4cd8eee5bde86caaULL) << Bytes;
}

// The release/acquire catalog jobs.  Their keys fold the memory model
// ("memmodel", "ra" and the reads-from budget), so these pins guard the
// RA key clause and the RA exploration's evidence alike.

TEST(CertGoldenTest, RaTicketEntryBytesArePinned) {
  // The catalog job ticket.2cpu.ra.
  std::string Stem;
  std::string Bytes = storedEntry(
      "ra_ticket",
      [] { EXPECT_TRUE(certifyTicketLockRa(2, 1).Report.Holds); }, &Stem);
  EXPECT_EQ(Stem, "refine-9da457e9ec01c3e6");
  EXPECT_EQ(Bytes.size(), 599u);
  EXPECT_EQ(bytesHash(Bytes), 0x09d5d9177980b610ULL) << Bytes;
}

TEST(CertGoldenTest, RaMcsEntryBytesArePinned) {
  // The catalog job mcs.2cpu.ra.
  std::string Stem;
  std::string Bytes = storedEntry(
      "ra_mcs", [] { EXPECT_TRUE(certifyMcsLockRa(2, 1).Report.Holds); },
      &Stem);
  EXPECT_EQ(Stem, "refine-ae7c00b9650ca78a");
  EXPECT_EQ(Bytes.size(), 602u);
  EXPECT_EQ(bytesHash(Bytes), 0x8300e11aaad48073ULL) << Bytes;
}
