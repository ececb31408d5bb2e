//===- tests/machine/por_property_test.cpp - POR property-based testing ---------===//
//
// Property-based hardening of the source-set DPOR reduction: random small
// object workloads — random CPU counts, per-CPU operation sequences over a
// small shared-variable pool, each primitive declaring its honest
// footprint — are swept through checkPorEquivalence, asserting that the
// reduced exploration preserves the full exploration's deduplicated
// outcome set on every one.  A deterministic negative control checks the
// other direction: a workload whose footprints LIE must make the
// differential check fail, or the property suite could not distinguish a
// sound reduction from one that ignores footprints entirely.  Failures
// dump the workload (replay with --ccal-fuzz-replay=<file>); past
// failures are pinned by the checked-in corpus (workload_dpor_initials
// pins the source-set insertion bug where backtracking the racing thread
// itself, when it is not an initial of the reversal sequence, lost a
// trace class under sleep sets).  Also home of the PorTest acceptance
// check that the obs registry's counters agree with ExploreResult.
//
//===-------------------------------------------------------------------------===//

#include "machine/Explorer.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "obs/Metrics.h"
#include "support/Rng.h"
#include "support/Text.h"
#include "tests/common/fuzz_support.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <sstream>
#include <string>
#include <vector>

using namespace ccal;

namespace {

/// One random workload: per-CPU sequences of operations over shared
/// variables.  Op names double as primitive names: `inc_<v>` (reads and
/// writes v) or `read_<v>` (reads v) — honest footprints by construction.
struct Workload {
  std::vector<std::vector<std::string>> OpsPerCpu; ///< index 0 = CPU 1

  /// Dump body: one `cpu <id>: op op ...` line per CPU.
  std::string toBody() const {
    std::string S;
    for (size_t C = 0; C != OpsPerCpu.size(); ++C) {
      S += "cpu " + std::to_string(C + 1) + ":";
      for (const std::string &Op : OpsPerCpu[C])
        S += " " + Op;
      S += "\n";
    }
    return S;
  }

  static bool parseBody(const std::string &Body, Workload &Out,
                        std::string &Error) {
    Out.OpsPerCpu.clear();
    std::istringstream In(Body);
    std::string Line;
    while (std::getline(In, Line)) {
      if (Line.empty())
        continue;
      std::istringstream Fields(Line);
      std::string Tag;
      unsigned Cpu = 0;
      char Colon = 0;
      if (!(Fields >> Tag >> Cpu >> Colon) || Tag != "cpu" || Colon != ':' ||
          Cpu == 0) {
        Error = "bad workload line: " + Line;
        return false;
      }
      if (Cpu != Out.OpsPerCpu.size() + 1) {
        Error = "non-consecutive cpu id in line: " + Line;
        return false;
      }
      std::vector<std::string> Ops;
      std::string Op;
      while (Fields >> Op) {
        if (Op.compare(0, 4, "inc_") != 0 &&
            Op.compare(0, 5, "read_") != 0) {
          Error = "unknown op '" + Op + "' in line: " + Line;
          return false;
        }
        Ops.push_back(Op);
      }
      if (Ops.empty()) {
        Error = "cpu with no ops in line: " + Line;
        return false;
      }
      Out.OpsPerCpu.push_back(std::move(Ops));
    }
    if (Out.OpsPerCpu.empty()) {
      Error = "workload body has no cpu lines";
      return false;
    }
    return true;
  }
};

Workload randomWorkload(std::uint64_t Seed) {
  Rng R(Seed);
  static const char *Vars[] = {"x", "y", "z"};
  unsigned NumVars = 1 + static_cast<unsigned>(R.below(3));
  unsigned Cpus = 2 + static_cast<unsigned>(R.below(2));
  Workload W;
  for (unsigned C = 0; C != Cpus; ++C) {
    unsigned NumOps = 1 + static_cast<unsigned>(R.below(3));
    std::vector<std::string> Ops;
    for (unsigned O = 0; O != NumOps; ++O) {
      std::string V = Vars[R.below(NumVars)];
      Ops.push_back((R.chance(1, 2) ? "inc_" : "read_") + V);
    }
    W.OpsPerCpu.push_back(std::move(Ops));
  }
  return W;
}

/// Builds the machine for a workload: a ClightX client with one entry per
/// CPU, over an interface where every op is a shared primitive with its
/// honest footprint.  With \p LyingReads, read_<v> ops instead declare a
/// purely local footprint — a deliberate under-report for the negative
/// control below.
MachineConfigPtr makeWorkloadConfig(const Workload &W,
                                    bool LyingReads = false) {
  std::set<std::string> OpNames;
  for (const auto &Ops : W.OpsPerCpu)
    OpNames.insert(Ops.begin(), Ops.end());

  std::string Src;
  for (const std::string &Op : OpNames)
    Src += "extern int " + Op + "();\n";
  // Accumulate op results into the return value: outcomes then
  // distinguish WHAT each read observed, not just the event order — a
  // read whose result depends on an undeclared conflict surfaces as a
  // divergent outcome even though its log events canonicalize away.
  for (size_t C = 0; C != W.OpsPerCpu.size(); ++C) {
    Src += strFormat("int t%zu() {\n  int acc = 0;\n", C + 1);
    for (const std::string &Op : W.OpsPerCpu[C])
      Src += "  acc = acc * 10 + " + Op + "();\n";
    Src += "  return acc;\n}\n";
  }

  ClightModule Client = parseModuleOrDie("w", Src);
  typeCheckOrDie(Client);

  auto L = makeInterface("Lworkload");
  for (const std::string &Op : OpNames) {
    std::string Var = Op.substr(Op.find('_') + 1);
    if (Op.compare(0, 4, "inc_") == 0)
      L->addShared(Op, makeFetchIncPrim(Op), Footprint::of({Var}, {Var}));
    else
      // read_<v> counts the inc_<v> events so far — a genuine read of v.
      L->addShared(Op, makeReadCounterPrim(Op, "inc_" + Var),
                   LyingReads ? Footprint() : Footprint::of({Var}, {}));
  }

  auto Cfg = std::make_shared<MachineConfig>();
  Cfg->Name = "workload";
  Cfg->Layer = L;
  Cfg->Program = compileAndLink("workload.lasm", {&Client});
  for (size_t C = 0; C != W.OpsPerCpu.size(); ++C)
    Cfg->Work.emplace(static_cast<ThreadId>(C + 1),
                      std::vector<CpuWorkItem>{
                          {strFormat("t%zu", C + 1), {}}});
  return Cfg;
}

PorEquivalenceReport checkWorkload(const Workload &W) {
  ExploreOptions Opts;
  Opts.MaxSteps = 4096;
  return checkPorEquivalence(makeWorkloadConfig(W), Opts);
}

/// Workload budget per seed; CI's fuzz job raises it via CCAL_FUZZ_WORKLOADS.
unsigned workloadBudget() {
  if (const char *Env = std::getenv("CCAL_FUZZ_WORKLOADS"))
    if (unsigned N = static_cast<unsigned>(std::strtoul(Env, nullptr, 10)))
      return N;
  return 10;
}

class PorPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

} // namespace

TEST_P(PorPropertyTest, ReductionPreservesOutcomeSets) {
  std::uint64_t Seed = GetParam();
  const unsigned Budget = workloadBudget();
  for (unsigned I = 0; I != Budget; ++I) {
    std::uint64_t CaseSeed = Seed * 1000 + I;
    Workload W = randomWorkload(CaseSeed);
    PorEquivalenceReport R = checkWorkload(W);
    if (!R.Ok || !R.Match) {
      std::string Dump = test::dumpFailure("workload", CaseSeed, W.toBody());
      FAIL() << R.Detail << "\nseed: " << CaseSeed << "\ndump: " << Dump
             << "\nworkload:\n" << W.toBody();
    }
    // Sanity on the generator, not the reduction: the full exploration
    // must not be trivial or the property is vacuous.
    EXPECT_GE(R.FullSchedules, 1u);
    EXPECT_LE(R.PorSchedules, R.FullSchedules);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PorPropertyTest,
                         ::testing::Values(11, 22, 33, 44));

/// Negative control: the SAME workload builder, but read_x declares a
/// purely local footprint while it genuinely reads the counter inc_x
/// bumps.  DPOR trusts the declaration, treats the read as racing with
/// nothing, and collapses both orders into one trace — the differential
/// check must report the missing outcome, not Match.  This is what keeps
/// the positive sweep above honest: a checker that could not fail here
/// would also accept a reduction that ignores footprints.
TEST(PorPropertyTest, LyingFootprintMustFailTheDifferentialCheck) {
  Workload W;
  W.OpsPerCpu = {{"inc_x"}, {"read_x"}};
  ExploreOptions Opts;
  Opts.MaxSteps = 4096;
  PorEquivalenceReport R =
      checkPorEquivalence(makeWorkloadConfig(W, /*LyingReads=*/true), Opts);
  ASSERT_TRUE(R.Ok) << R.Detail;
  EXPECT_FALSE(R.Match)
      << "a lying footprint slipped past the differential check";
  EXPECT_NE(R.Detail.find("missing under POR"), std::string::npos)
      << R.Detail;
  EXPECT_GT(R.FullOutcomes, R.PorOutcomes);

  // The honest twin of the same workload passes, isolating the lie as
  // the only difference.
  PorEquivalenceReport Honest =
      checkPorEquivalence(makeWorkloadConfig(W), Opts);
  ASSERT_TRUE(Honest.Ok) << Honest.Detail;
  EXPECT_TRUE(Honest.Match) << Honest.Detail;
}

/// Replays a dumped failing workload when --ccal-fuzz-replay=<file> names
/// a kind=workload dump; skipped otherwise.
TEST(FuzzReplayTest, ReplaysDumpedWorkload) {
  const std::string &Path = test::fuzzReplayPath();
  if (Path.empty())
    GTEST_SKIP() << "no --ccal-fuzz-replay=<file> given";
  test::FuzzDump D;
  std::string Err;
  ASSERT_TRUE(test::readFuzzDump(Path, D, Err)) << Err;
  if (D.Kind != "workload")
    GTEST_SKIP() << "dump kind '" << D.Kind << "' is not handled here";
  Workload W;
  ASSERT_TRUE(Workload::parseBody(D.Body, W, Err)) << Err;
  PorEquivalenceReport R = checkWorkload(W);
  EXPECT_TRUE(R.Ok && R.Match) << R.Detail << "\nworkload:\n" << D.Body;
}

/// Checked-in past failures keep holding — the workload half of the
/// regression corpus.
TEST(FuzzCorpusTest, PastWorkloadsStayEquivalent) {
  std::vector<std::string> Files =
      test::corpusFiles(CCAL_CORPUS_DIR, "workload");
  ASSERT_FALSE(Files.empty())
      << "no workload corpus entries under " << CCAL_CORPUS_DIR;
  for (const std::string &Path : Files) {
    test::FuzzDump D;
    std::string Err;
    ASSERT_TRUE(test::readFuzzDump(Path, D, Err)) << Err;
    Workload W;
    ASSERT_TRUE(Workload::parseBody(D.Body, W, Err)) << Path << ": " << Err;
    PorEquivalenceReport R = checkWorkload(W);
    EXPECT_TRUE(R.Ok && R.Match)
        << Path << ": " << R.Detail << "\nworkload:\n" << D.Body;
  }
}

/// Acceptance: the obs registry's view of a POR run must agree with the
/// ExploreResult it was published from — the reduced schedule count, the
/// sleep-set prunes, and the DPOR backtrack insertions.
TEST(PorTest, RegistryCountersMatchExploreResult) {
  bool WasEnabled = obs::enabled();
  obs::setEnabled(true);
  obs::metricsReset();

  // inc_x on two CPUs forces genuine races (so dpor.backtracks > 0);
  // inc_z stays independent.
  Workload W;
  W.OpsPerCpu = {{"inc_x", "inc_y"}, {"inc_x"}, {"inc_z"}};
  ExploreOptions Opts;
  Opts.Por = true;
  Opts.MaxSteps = 4096;
  ExploreResult Res = exploreMachine(makeWorkloadConfig(W), Opts);

  EXPECT_TRUE(Res.Ok) << Res.Violation;
  EXPECT_TRUE(Res.PorApplied);
  EXPECT_GT(Res.DporBacktracks, 0u);
  EXPECT_EQ(obs::counterValue("explorer.schedules_explored"),
            Res.SchedulesExplored);
  EXPECT_EQ(obs::counterValue("explorer.sleep_skips"), Res.PorSleepSkips);
  EXPECT_EQ(obs::counterValue("dpor.backtracks"), Res.DporBacktracks);
  EXPECT_EQ(obs::counterValue("explorer.por_runs"), 1u);

  obs::metricsReset();
  obs::setEnabled(WasEnabled);
}
