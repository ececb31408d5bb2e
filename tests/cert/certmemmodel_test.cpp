//===- tests/cert/certmemmodel_test.cpp - Memory-model tags in cert keys --------===//
//
// The memory model is part of a check's content address: an SC certificate
// presented for an RA job must be a fail-closed MISS (plain key mismatch,
// or — if someone aliases the file on disk — a load rejection that bumps
// the rejection counter, deletes the lie, and re-runs the check).  It must
// never be served as a hit.  Conversely the tags fold only when the model
// is weak, so every key minted before the memory-model refactor still
// hashes byte-identically and warm SC caches keep working.

#include "cert/CertKeys.h"
#include "cert/CertStore.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "machine/MemoryModel.h"
#include "machine/Soundness.h"
#include "obs/Metrics.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

using namespace ccal;
namespace fs = std::filesystem;

namespace {

class CertMemModelTest : public ::testing::Test {
protected:
  void SetUp() override {
    WasEnabled = obs::enabled();
    obs::setEnabled(true);
    obs::metricsReset();
    Dir = fs::path(::testing::TempDir()) /
          (std::string("ccal_cert_memmodel_") +
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

  std::set<fs::path> storedFiles() const {
    std::set<fs::path> Out;
    std::error_code Ec;
    for (const fs::directory_entry &E : fs::directory_iterator(Dir, Ec))
      Out.insert(E.path());
    return Out;
  }

  static std::string slurp(const fs::path &P) {
    std::ifstream In(P, std::ios::binary);
    std::ostringstream Buf;
    Buf << In.rdbuf();
    return Buf.str();
  }

  static void spit(const fs::path &P, const std::string &Bytes) {
    std::ofstream Out(P, std::ios::binary | std::ios::trunc);
    Out << Bytes;
  }

  fs::path Dir;
  bool WasEnabled = false;
};

/// A tiny refinement job, parameterized by memory model.  The layer's
/// footprints are annotated (relaxed counter), so the RA machine has real
/// reads-from choices — but on one CPU the outcome set is the same either
/// way, keeping both checks green.
MachineConfigPtr makeCounterConfig(MemoryModel Model,
                                   unsigned ReadsFromBudget = 64) {
  static ClightModule Client = [] {
    ClightModule M = parseModuleOrDie("c", R"(
      extern int bump();
      int t_main() { return bump(); }
    )");
    typeCheckOrDie(M);
    return M;
  }();
  auto L = makeInterface("Lbump");
  L->addShared("bump", makeFetchIncPrim("bump"),
               Footprint::of({"b"}, {"b"})
                   .withOrders(MemOrder::Relaxed, MemOrder::Relaxed)
                   .nonAtomic());
  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "bump";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("bump.lasm", {&Client});
  Cfg->Model = Model;
  Cfg->MaxReadsFromPerStep = ReadsFromBudget;
  Cfg->Work.emplace(1, std::vector<CpuWorkItem>{{"t_main", {}}});
  return Cfg;
}

ContextualRefinementReport runRefinement(MemoryModel Model) {
  return checkContextualRefinement(makeCounterConfig(Model),
                                   makeCounterConfig(MemoryModel::Sc),
                                   EventMap::identity(), ExploreOptions(),
                                   ExploreOptions());
}

} // namespace

TEST(CertMemModelKeyTest, MachineKeyFoldsModelOnlyWhenWeak) {
  // The SC tag is the absence of a tag, which is what keeps pre-refactor
  // keys (and the certificates stored under them) verifying
  // byte-for-byte: an SC key does not see the reads-from budget either.
  MachineConfigPtr A = makeCounterConfig(MemoryModel::Sc);
  Hasher HA;
  cert::keyAddMachineConfig(HA, *A);
  MachineConfigPtr B =
      makeCounterConfig(MemoryModel::Sc, /*ReadsFromBudget=*/128);
  Hasher HB;
  cert::keyAddMachineConfig(HB, *B);
  EXPECT_EQ(HA.value(), HB.value());

  MachineConfigPtr C = makeCounterConfig(MemoryModel::Ra);
  Hasher HC;
  cert::keyAddMachineConfig(HC, *C);
  EXPECT_NE(HA.value(), HC.value());

  // The reads-from budget shapes which RA explorations fault, so it is
  // part of the weak key too.
  MachineConfigPtr D =
      makeCounterConfig(MemoryModel::Ra, /*ReadsFromBudget=*/128);
  Hasher HD;
  cert::keyAddMachineConfig(HD, *D);
  EXPECT_NE(HC.value(), HD.value());
}

TEST(CertMemModelKeyTest, FootprintKeyFoldsOrderingOnlyWhenAnnotated) {
  Footprint Sc = Footprint::of({"x"}, {"x"});
  Hasher HSc;
  cert::keyAddFootprint(HSc, Sc);

  // Explicit SeqCst/SeqCst/atomic is the default: same bytes.
  Footprint ScExplicit =
      Sc.withOrders(MemOrder::SeqCst, MemOrder::SeqCst);
  Hasher HSc2;
  cert::keyAddFootprint(HSc2, ScExplicit);
  EXPECT_EQ(HSc.value(), HSc2.value());

  Footprint Ra = Sc.withOrders(MemOrder::AcqRel, MemOrder::AcqRel);
  Hasher HRa;
  cert::keyAddFootprint(HRa, Ra);
  EXPECT_NE(HSc.value(), HRa.value());

  // Every annotation is distinguishing: a torn access and a fair read
  // hash apart from the plain acq_rel RMW.
  Hasher HTorn, HFair;
  cert::keyAddFootprint(HTorn, Ra.nonAtomic());
  cert::keyAddFootprint(HFair, Ra.fairRead());
  EXPECT_NE(HRa.value(), HTorn.value());
  EXPECT_NE(HRa.value(), HFair.value());
}

TEST_F(CertMemModelTest, RaJobMissesScCertificate) {
  // Cold SC run populates the store.
  ContextualRefinementReport Sc = runRefinement(MemoryModel::Sc);
  ASSERT_TRUE(Sc.Holds) << Sc.Counterexample;
  EXPECT_EQ(obs::counterValue("cert.misses"), 1u);
  EXPECT_EQ(obs::counterValue("cert.hits"), 0u);
  ASSERT_EQ(storedFiles().size(), 1u);

  // The same job under MemoryModel::Ra is a *different* check: plain
  // miss, fresh exploration, second stored certificate — never a hit on
  // the SC entry.
  ContextualRefinementReport Ra = runRefinement(MemoryModel::Ra);
  ASSERT_TRUE(Ra.Holds) << Ra.Counterexample;
  EXPECT_EQ(obs::counterValue("cert.misses"), 2u);
  EXPECT_EQ(obs::counterValue("cert.hits"), 0u);
  EXPECT_EQ(storedFiles().size(), 2u);

  // Warm repeats of each now hit their own entry.
  runRefinement(MemoryModel::Sc);
  runRefinement(MemoryModel::Ra);
  EXPECT_EQ(obs::counterValue("cert.hits"), 2u);
  EXPECT_EQ(obs::counterValue("cert.misses"), 2u);
}

TEST_F(CertMemModelTest, AliasedScCertificateIsRejectedAndRechecked) {
  // Populate both entries, note which file belongs to which job.
  ASSERT_TRUE(runRefinement(MemoryModel::Sc).Holds);
  std::set<fs::path> ScFiles = storedFiles();
  ASSERT_EQ(ScFiles.size(), 1u);
  const fs::path ScFile = *ScFiles.begin();
  ASSERT_TRUE(runRefinement(MemoryModel::Ra).Holds);
  fs::path RaFile;
  for (const fs::path &P : storedFiles())
    if (P != ScFile)
      RaFile = P;
  ASSERT_FALSE(RaFile.empty());
  const std::string RaBytes = slurp(RaFile);

  // Alias the SC certificate under the RA job's address — the attack (or
  // sync bug) the store must fail closed against.
  spit(RaFile, slurp(ScFile));
  obs::metricsReset();

  ContextualRefinementReport Again = runRefinement(MemoryModel::Ra);
  ASSERT_TRUE(Again.Holds) << Again.Counterexample;
  // Not a hit: the entry self-identifies as a different check, so load
  // rejects it, deletes the file, and the checker re-runs and re-stores.
  EXPECT_EQ(obs::counterValue("cert.hits"), 0u);
  EXPECT_GE(obs::counterValue("cert.rejections"), 1u);
  EXPECT_EQ(obs::counterValue("cert.misses"), 1u);
  EXPECT_GT(obs::counterValue("explorer.schedules_explored"), 0u);
  EXPECT_EQ(slurp(RaFile), RaBytes); // honest entry re-minted in place
}
