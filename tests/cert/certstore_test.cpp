//===- tests/cert/certstore_test.cpp - Certificate store tests -----------------===//
//
// The content-addressed store end to end: a cold refinement check persists
// its certificate, a warm repeat serves it back byte-identically with ZERO
// re-exploration (asserted through the explorer's own counters), and every
// fail-closed rule — corruption, tampered Valid/CoverageComplete, truncated
// evidence, anonymous (unhashable) inputs — rejects the entry and re-checks
// instead of trusting it.
//
//===----------------------------------------------------------------------===//

#include "cert/CertStore.h"

#include "compcertx/Linker.h"
#include "compcertx/Validate.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "machine/Soundness.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace ccal;
namespace fs = std::filesystem;

namespace {

/// Each test gets a private store directory and a clean metrics registry;
/// the global store is always detached again so suites sharing the process
/// never cache behind each other's back.
class CertStoreTest : public ::testing::Test {
protected:
  void SetUp() override {
    WasEnabled = obs::enabled();
    obs::setEnabled(true);
    obs::metricsReset();
    Dir = fs::path(::testing::TempDir()) /
          (std::string("ccal_cert_store_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(Dir);
    cert::setStoreDir(Dir.string());
  }
  void TearDown() override {
    cert::setStoreDir("");
    fs::remove_all(Dir);
    obs::metricsReset();
    obs::setEnabled(WasEnabled);
  }

  std::vector<fs::path> storedFiles() const {
    std::vector<fs::path> Out;
    std::error_code Ec;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir, Ec))
      Out.push_back(E.path());
    return Out;
  }

  static std::string slurp(const fs::path &P) {
    std::ifstream In(P, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    return Buf.str();
  }

  fs::path Dir;
  bool WasEnabled = false;
};

/// The explorer_test tick machine: each CPU bumps a shared counter K times.
MachineConfigPtr makeTickConfig(unsigned Cpus, unsigned Ticks) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int tick();
      int t_main(int k) {
        int acc = 0;
        int i = 0;
        while (i < k) {
          acc = acc * 10 + tick();
          i = i + 1;
        }
        return acc;
      }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Ltick");
  L->addShared("tick", makeFetchIncPrim("tick"));
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "tick";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("tick.lasm", {&Client});
  for (ThreadId C = 1; C <= Cpus; ++C)
    Cfg->Work.emplace(C, std::vector<CpuWorkItem>{
                             {"t_main", {static_cast<std::int64_t>(Ticks)}}});
  return Cfg;
}

ContextualRefinementReport runTickRefinement() {
  return checkContextualRefinement(makeTickConfig(2, 1), makeTickConfig(2, 1),
                                   EventMap::identity(), ExploreOptions(),
                                   ExploreOptions());
}

/// A minting-grade entry for the unit tests that drive load/store directly.
cert::CertStore::Entry makeGoodEntry() {
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = "Fun";
  C->Underlay = "L0";
  C->Module = "M";
  C->Overlay = "L1";
  C->Relation = "R";
  C->Valid = true;
  C->CoverageComplete = true;
  C->Coverage = "exhaustive";
  C->Obligations = 3;
  cert::CertStore::Entry E;
  E.Cert = C;
  E.Payload = jsonStr("payload");
  return E;
}

cert::CertKey makeKey(const std::string &Checker, std::uint64_t Hash) {
  cert::CertKey K;
  K.Checker = Checker;
  K.Version = "test-v1";
  K.Hash = Hash;
  K.Desc = "unit-test entry";
  return K;
}

} // namespace

TEST_F(CertStoreTest, StoreThenLoadRoundTripsBytes) {
  cert::CertStore Store(Dir.string());
  cert::CertKey Key = makeKey("refine", 0x1234);
  cert::CertStore::Entry E = makeGoodEntry();
  Store.store(Key, E);

  cert::CertStore::Entry Back;
  ASSERT_TRUE(Store.load(Key, Back));
  EXPECT_EQ(cert::CertStore::render(Key, E),
            cert::CertStore::render(Key, Back));
  EXPECT_TRUE(Back.Cert->Valid);
  EXPECT_EQ(Back.Payload.StrVal, "payload");
}

TEST_F(CertStoreTest, WarmRefinementHitRunsZeroExplorations) {
  ContextualRefinementReport Cold = runTickRefinement();
  ASSERT_TRUE(Cold.Holds) << Cold.Counterexample;
  EXPECT_EQ(obs::counterValue("cert.misses"), 1u);
  EXPECT_EQ(obs::counterValue("cert.stores"), 1u);
  EXPECT_EQ(obs::counterValue("cert.hits"), 0u);

  std::vector<fs::path> Files = storedFiles();
  ASSERT_EQ(Files.size(), 1u);
  std::string ColdBytes = slurp(Files[0]);
  std::uint64_t Explored = obs::counterValue("explorer.schedules_explored");
  ASSERT_GT(Explored, 0u);

  ContextualRefinementReport Warm = runTickRefinement();
  EXPECT_EQ(obs::counterValue("cert.hits"), 1u);
  EXPECT_EQ(obs::counterValue("cert.misses"), 1u);
  // The load-bearing claim: a warm run re-explores nothing — the monotone
  // explorer counters do not move at all.
  EXPECT_EQ(obs::counterValue("explorer.schedules_explored"), Explored);
  EXPECT_EQ(obs::counterValue("explorer.runs"), 2u); // 1 impl + 1 spec

  // The served report matches the computed one, and the stored bytes are
  // untouched (what the CI warm-cache job checks by checksum).
  EXPECT_EQ(Warm.Holds, Cold.Holds);
  EXPECT_EQ(Warm.ObligationsChecked, Cold.ObligationsChecked);
  EXPECT_EQ(Warm.SchedulesExplored, Cold.SchedulesExplored);
  EXPECT_EQ(Warm.Coverage, Cold.Coverage);
  EXPECT_EQ(slurp(Files[0]), ColdBytes);
}

TEST_F(CertStoreTest, CorruptedEntryIsRejectedAndRechecked) {
  ContextualRefinementReport Cold = runTickRefinement();
  ASSERT_TRUE(Cold.Holds);
  std::vector<fs::path> Files = storedFiles();
  ASSERT_EQ(Files.size(), 1u);
  std::string GoodBytes = slurp(Files[0]);

  { // Truncate-and-scribble: the entry no longer parses.
    std::ofstream Out(Files[0], std::ios::binary | std::ios::trunc);
    Out << "{\"schema\":1,\"checker\":\"refine\",  corrupted";
  }
  std::uint64_t Explored = obs::counterValue("explorer.schedules_explored");

  ContextualRefinementReport Again = runTickRefinement();
  EXPECT_TRUE(Again.Holds) << Again.Counterexample;
  EXPECT_GE(obs::counterValue("cert.rejections"), 1u);
  EXPECT_EQ(obs::counterValue("cert.hits"), 0u);
  // Rejection forces a genuine re-check (the explorer ran again)...
  EXPECT_GT(obs::counterValue("explorer.schedules_explored"), Explored);
  // ...and the re-check re-mints the identical entry.
  std::vector<fs::path> After = storedFiles();
  ASSERT_EQ(After.size(), 1u);
  EXPECT_EQ(slurp(After[0]), GoodBytes);
}

TEST_F(CertStoreTest, TamperedValidWithoutCoverageIsRejected) {
  cert::CertStore Store(Dir.string());
  cert::CertKey Key = makeKey("refine", 0x77);
  Store.store(Key, makeGoodEntry());
  std::vector<fs::path> Files = storedFiles();
  ASSERT_EQ(Files.size(), 1u);

  // Flip coverage_complete while leaving valid=true: a combination no
  // honest checker mints, so the load must treat it as tampering.
  std::string Text = slurp(Files[0]);
  std::string Needle = "\"coverage_complete\":true";
  auto Pos = Text.find(Needle);
  ASSERT_NE(Pos, std::string::npos);
  Text.replace(Pos, Needle.size(), "\"coverage_complete\":false");
  {
    std::ofstream Out(Files[0], std::ios::binary | std::ios::trunc);
    Out << Text;
  }

  cert::CertStore::Entry Back;
  EXPECT_FALSE(Store.load(Key, Back));
  EXPECT_GE(obs::counterValue("cert.rejections"), 1u);
  // Rejected evidence is deleted so the next run re-checks, not re-rejects.
  EXPECT_TRUE(storedFiles().empty());
}

TEST_F(CertStoreTest, WrongKeyOrVersionUnderTheSameFileNameIsRejected) {
  cert::CertStore Store(Dir.string());
  cert::CertKey Key = makeKey("refine", 0xabc);
  Store.store(Key, makeGoodEntry());

  // Same address, different version tag: the recorded "test-v1" no longer
  // answers the question "test-v2" asks.
  cert::CertKey Bumped = Key;
  Bumped.Version = "test-v2";
  // A version bump keeps the file name, which is the checker name plus the
  // hash: the stale entry sits at the bumped key's address, is rejected
  // once, and the re-check re-mints it under the same name.
  std::vector<fs::path> Files = storedFiles();
  ASSERT_EQ(Files.size(), 1u);
  EXPECT_EQ(Files[0], Dir / (Bumped.fileStem() + ".cert.json"));

  cert::CertStore::Entry Back;
  EXPECT_FALSE(Store.load(Bumped, Back));
  EXPECT_GE(obs::counterValue("cert.rejections"), 1u);
}

TEST_F(CertStoreTest, TruncatedEvidenceIsNeverPersisted) {
  cert::CertStore Store(Dir.string());
  cert::CertStore::Entry E = makeGoodEntry();
  auto C = std::make_shared<RefinementCertificate>(*E.Cert);
  C->Valid = false;
  C->CoverageComplete = false;
  C->Coverage = "schedule budget exhausted";
  E.Cert = C;
  Store.store(makeKey("refine", 0x5), E);
  EXPECT_TRUE(storedFiles().empty());

  cert::CertStore::Entry Null;
  Null.Payload = jsonNull();
  Store.store(makeKey("refine", 0x6), Null); // no certificate at all
  EXPECT_TRUE(storedFiles().empty());
}

TEST_F(CertStoreTest, CompleteNegativeEvidenceIsServed) {
  // A refutation whose exploration DID run to completion is reusable
  // evidence — the counterexample is as stable as a proof — so Valid=false
  // with CoverageComplete=true passes every load rule.
  cert::CertStore Store(Dir.string());
  cert::CertKey Key = makeKey("refine", 0x9);
  cert::CertStore::Entry E = makeGoodEntry();
  auto C = std::make_shared<RefinementCertificate>(*E.Cert);
  C->Valid = false;
  C->Notes.push_back("counterexample trace");
  E.Cert = C;
  Store.store(Key, E);

  cert::CertStore::Entry Back;
  ASSERT_TRUE(Store.load(Key, Back));
  EXPECT_FALSE(Back.Cert->Valid);
  EXPECT_TRUE(Back.Cert->CoverageComplete);
  ASSERT_EQ(Back.Cert->Notes.size(), 1u);
  EXPECT_EQ(Back.Cert->Notes[0], "counterexample trace");
  EXPECT_EQ(obs::counterValue("cert.rejections"), 0u);
}

TEST_F(CertStoreTest, AnonymousInvariantBypassesTheStore) {
  ExploreOptions Opts;
  Opts.Invariant = [](const MultiCoreMachine &) { return std::string(); };
  // No InvariantName: the key cannot see the callable's semantics, so the
  // check must run uncached rather than alias every anonymous invariant.
  ContextualRefinementReport Rep = checkContextualRefinement(
      makeTickConfig(2, 1), makeTickConfig(2, 1), EventMap::identity(), Opts,
      ExploreOptions());
  EXPECT_TRUE(Rep.Holds) << Rep.Counterexample;
  EXPECT_TRUE(storedFiles().empty());
  EXPECT_EQ(obs::counterValue("cert.misses"), 0u);
  EXPECT_EQ(obs::counterValue("cert.hits"), 0u);
}

TEST_F(CertStoreTest, EvictionCapsTheEntryCount) {
  cert::CertStore Store(Dir.string(), /*MaxEntries=*/2);
  for (std::uint64_t I = 0; I != 4; ++I)
    Store.store(makeKey("refine", I), makeGoodEntry());
  EXPECT_LE(storedFiles().size(), 2u);
  EXPECT_GE(obs::counterValue("cert.evictions"), 2u);
}

TEST_F(CertStoreTest, EvictionSkipsUnstattableEntries) {
  // Regression: a directory entry whose stat fails (here a dangling
  // symlink with the store's .json extension) used to yield an epoch
  // mtime that sorted OLDEST, so eviction rounds deleted it (or, once
  // deleted, the next-oldest healthy entry) while the count stayed
  // inflated.  The fix skips it, bumps cert.evict_stat_errors, and
  // orders only the stattable entries.
  cert::CertStore Store(Dir.string(), /*MaxEntries=*/2);
  Store.store(makeKey("refine", 1), makeGoodEntry());
  const fs::path File1 = Dir / "refine-0000000000000001.cert.json";
  const fs::path File2 = Dir / "refine-0000000000000002.cert.json";
  ASSERT_TRUE(fs::exists(File1));

  const fs::path Broken = Dir / "aaa-broken.cert.json";
  std::error_code Ec;
  fs::create_symlink("no-such-target", Broken, Ec);
  if (Ec)
    GTEST_SKIP() << "filesystem does not support symlinks: " << Ec.message();

  // One healthy entry + one unstattable: below the cap, so storing must
  // evict nothing — in particular not the healthy entry.
  Store.store(makeKey("refine", 2), makeGoodEntry());
  EXPECT_TRUE(fs::exists(File1));
  EXPECT_TRUE(fs::exists(File2));
  EXPECT_GE(obs::counterValue("cert.evict_stat_errors"), 1u);
  EXPECT_EQ(obs::counterValue("cert.evictions"), 0u);

  // At the cap the OLDEST healthy entry goes; the broken one is never a
  // victim and never shields a healthy entry from eviction.
  Store.store(makeKey("refine", 3), makeGoodEntry());
  EXPECT_FALSE(fs::exists(File1));
  EXPECT_TRUE(fs::exists(File2));
  EXPECT_TRUE(fs::exists(Dir / "refine-0000000000000003.cert.json"));
  EXPECT_EQ(obs::counterValue("cert.evictions"), 1u);
  EXPECT_TRUE(fs::symlink_status(Broken).type() ==
              fs::file_type::symlink);
}

TEST_F(CertStoreTest, EvictionTiesOnMtimeBreakByPath) {
  // Filesystem mtime granularity is coarse enough that entries minted in
  // one burst share a timestamp.  Eviction order must not then depend on
  // directory iteration order: ties break lexicographically by path, so
  // two runs over the same store evict the same entry.
  cert::CertStore Store(Dir.string(), /*MaxEntries=*/2);
  Store.store(makeKey("refine", 1), makeGoodEntry());
  Store.store(makeKey("refine", 2), makeGoodEntry());
  const fs::path File1 = Dir / "refine-0000000000000001.cert.json";
  const fs::path File2 = Dir / "refine-0000000000000002.cert.json";
  ASSERT_TRUE(fs::exists(File1));
  ASSERT_TRUE(fs::exists(File2));

  // Force an exact tie: both entries in the same mtime tick.
  const fs::file_time_type Same = fs::last_write_time(File2);
  fs::last_write_time(File1, Same);
  fs::last_write_time(File2, Same);

  Store.store(makeKey("refine", 3), makeGoodEntry());
  EXPECT_FALSE(fs::exists(File1)); // smaller path loses the tie
  EXPECT_TRUE(fs::exists(File2));
  EXPECT_TRUE(fs::exists(Dir / "refine-0000000000000003.cert.json"));
  EXPECT_EQ(obs::counterValue("cert.evictions"), 1u);
}

TEST_F(CertStoreTest, ValidationCachesWhenPrimsAreNamed) {
  ClightModule M = parseModuleOrDie("v", R"(
    int f(int x) { return x * 2 + 1; }
  )");
  typeCheckOrDie(M);
  std::vector<ValidationCase> Cases = {{"f", {20}}, {"f", {-3}}};
  auto MakePrims = [] {
    return [](const std::string &,
              const std::vector<std::int64_t> &) -> std::optional<std::int64_t> {
      return std::nullopt;
    };
  };

  ValidationOptions Opts;
  Opts.PrimsKey = "prims:none";
  ValidationReport Cold = validateTranslation(M, Cases, MakePrims, Opts);
  ASSERT_TRUE(Cold.Ok) << Cold.Error;
  EXPECT_EQ(obs::counterValue("cert.misses"), 1u);

  ValidationReport Warm = validateTranslation(M, Cases, MakePrims, Opts);
  EXPECT_EQ(obs::counterValue("cert.hits"), 1u);
  EXPECT_EQ(Warm.CasesChecked, Cold.CasesChecked);
  EXPECT_EQ(Warm.Ok, Cold.Ok);

  // Unnamed prims bypass: no extra store traffic.
  ValidationOptions Anon;
  validateTranslation(M, Cases, MakePrims, Anon);
  EXPECT_EQ(obs::counterValue("cert.misses"), 1u);
}

TEST_F(CertStoreTest, VanishedEntryIsAPlainMissNotARejection) {
  // Cross-process contract: with N processes sharing the directory, an
  // entry can be evicted by a peer between ANY two of this process's
  // steps.  A vanished file is indistinguishable from never-stored, so it
  // must load as a miss — a rejection here would count corruption that
  // never happened and delete (already deleted) evidence.
  cert::CertStore Store(Dir.string());
  cert::CertKey Key = makeKey("refine", 0xfeed);
  Store.store(Key, makeGoodEntry());
  std::vector<fs::path> Files = storedFiles();
  ASSERT_EQ(Files.size(), 1u);
  fs::remove(Files[0]); // the "peer eviction"

  cert::CertStore::Entry Back;
  EXPECT_FALSE(Store.load(Key, Back));
  EXPECT_EQ(obs::counterValue("cert.rejections"), 0u);

  // Through the getOrCheck front-end the same situation is a clean
  // miss+recheck+restore cycle.
  bool Ran = false;
  EXPECT_FALSE(Store.getOrCheck(
      Key, [](const cert::CertStore::Entry &) { return true; },
      [&] {
        Ran = true;
        return makeGoodEntry();
      }));
  EXPECT_TRUE(Ran);
  EXPECT_EQ(obs::counterValue("cert.misses"), 1u);
  EXPECT_EQ(obs::counterValue("cert.rejections"), 0u);
  EXPECT_EQ(storedFiles().size(), 1u); // re-minted
}

TEST_F(CertStoreTest, LoadFromAMissingDirectoryIsAMiss) {
  // The whole store directory vanishing (operator rm -rf while daemons
  // run) is the same contract at directory granularity.
  cert::CertStore Store(Dir.string());
  fs::remove_all(Dir);
  cert::CertStore::Entry Back;
  EXPECT_FALSE(Store.load(makeKey("refine", 0x1), Back));
  EXPECT_EQ(obs::counterValue("cert.rejections"), 0u);
}

TEST_F(CertStoreTest, ConcurrentStoresOfTheSameKeyLeaveOneWholeEntry) {
  // Writer-unique temp names: threads sharing one CertStore (the daemon's
  // workers) racing store() on the same key must each write their own
  // temp file — a pid-only suffix would interleave two writers into one
  // file and publish a torn entry.
  cert::CertStore Store(Dir.string());
  cert::CertKey Key = makeKey("refine", 0xbeef);
  std::vector<std::thread> Writers;
  for (int I = 0; I != 8; ++I)
    Writers.emplace_back([&] { Store.store(Key, makeGoodEntry()); });
  for (std::thread &W : Writers)
    W.join();

  std::vector<fs::path> Files = storedFiles();
  ASSERT_EQ(Files.size(), 1u); // no leftover temp files, one final entry
  cert::CertStore::Entry Back;
  EXPECT_TRUE(Store.load(Key, Back));
  EXPECT_EQ(cert::CertStore::render(Key, Back),
            cert::CertStore::render(Key, makeGoodEntry()));
}
