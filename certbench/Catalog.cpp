//===- certbench/Catalog.cpp - job kinds, pins, verdict checks ------------===//

#include "Bench.h"

#include "objects/McsLock.h"
#include "objects/TicketLock.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <ctime>
#include <filesystem>

#include <sys/resource.h>
#include <unistd.h>

using namespace ccal;
using namespace ccal::serve;

namespace certbench {

namespace {

const char BrokenTwin[] = "ticket.2cpu.ra.broken";

} // namespace

const JobKind &heavyKind() {
  static const JobKind K{"ticket.2cpu.2r", true,
                         [] { return makeTicketLockHarness(2, 2); }};
  return K;
}

const std::vector<JobKind> &catalogKinds() {
  static const std::vector<JobKind> Kinds = {
      {"ticket.2cpu", true, [] { return makeTicketLockHarness(2, 1); }},
      {"mcs.2cpu", true, [] { return makeMcsLockHarness(2, 1); }},
      {"ticket.2cpu.ra", true, [] { return makeTicketLockHarnessRa(2, 1); }},
      {"mcs.2cpu.ra", true, [] { return makeMcsLockHarnessRa(2, 1); }},
      {"ticket.1cpu.2r", true, [] { return makeTicketLockHarness(1, 2); }},
      {BrokenTwin, false, [] { return makeTicketLockHarnessRa(2, 1, true); }},
  };
  return Kinds;
}

void applyContext(ObjectHarness &H, const JobContext &Ctx) {
  H.ImplOpts.Cancel = Ctx.Cancel;
  H.ImplOpts.CancelReason = Ctx.CancelReason;
  H.SpecOpts.Cancel = Ctx.Cancel;
  H.SpecOpts.CancelReason = Ctx.CancelReason;
  if (Ctx.Threads > 1) {
    H.ImplOpts.Threads = Ctx.Threads;
    H.SpecOpts.Threads = Ctx.Threads;
  }
}

void registerBrokenTwin() {
  registerJob(BrokenTwin,
              "ticket lock with the torn relaxed ticket grab under "
              "release/acquire memory, 2 CPUs x 1 round (must be refuted)",
              [](const JobContext &Ctx) {
                ObjectHarness H = makeTicketLockHarnessRa(2, 1, true);
                applyContext(H, Ctx);
                HarnessOutcome Out = runObjectHarness(H);
                JobResult R;
                R.Holds = Out.Report.Holds;
                R.Complete = Out.Report.SpecComplete && Out.Report.ImplComplete;
                R.Diagnostic = Out.Report.Holds ? "" : Out.Report.Counterexample;
                R.Schedules = Out.Report.SchedulesExplored;
                R.Obligations = Out.Report.ObligationsChecked;
                return R;
              });
}

// Counters of every job kind at the commit that introduced this benchmark
// (schedules and states are spec + impl, as the refinement report sums
// them).  Kept exact: a speed-up must not come from exploring less by
// accident, and an intended reduction shows up as a flagged difference.
const Counters *pinnedCounters(const std::string &Kind) {
  static const std::map<std::string, Counters> Pins = {
      {"ticket.2cpu", {330, 2550, 328, "exhaustive"}},
      {"mcs.2cpu", {838, 7314, 836, "exhaustive"}},
      {"ticket.2cpu.ra", {330, 2550, 328, "exhaustive"}},
      {"mcs.2cpu.ra", {838, 7314, 836, "exhaustive"}},
      {"ticket.1cpu.2r", {2, 22, 1, "exhaustive"}},
      {"ticket.2cpu.ra.broken", {48, 370, 45, "refuted"}},
      {"ticket.2cpu.2r", {3544326, 27409478, 3544320, "exhaustive"}},
  };
  auto It = Pins.find(Kind);
  return It == Pins.end() ? nullptr : &It->second;
}

bool reportAgainstPin(const std::string &Kind, const Counters &Got) {
  const Counters *Pin = pinnedCounters(Kind);
  bool Changed = !Pin || Pin->Schedules != Got.Schedules ||
                 Pin->Obligations != Got.Obligations ||
                 Pin->States != Got.States || Pin->Coverage != Got.Coverage;
  std::printf("counters %-22s schedules=%llu states=%llu obligations=%llu "
              "coverage=%s%s\n",
              Kind.c_str(), static_cast<unsigned long long>(Got.Schedules),
              static_cast<unsigned long long>(Got.States),
              static_cast<unsigned long long>(Got.Obligations),
              Got.Coverage.c_str(),
              !Pin      ? "  [no pin]"
              : Changed ? "  [CHANGED from pin]"
                        : "  [= pin]");
  if (Pin && Changed)
    std::printf("  pinned %-22s schedules=%llu states=%llu obligations=%llu "
                "coverage=%s\n",
                Kind.c_str(), static_cast<unsigned long long>(Pin->Schedules),
                static_cast<unsigned long long>(Pin->States),
                static_cast<unsigned long long>(Pin->Obligations),
                Pin->Coverage.c_str());
  return Changed;
}

std::string coverageOf(const JobResult &R) {
  if (R.Complete)
    return "exhaustive";
  return R.Diagnostic.find("violation") != std::string::npos ? "refuted"
                                                            : "truncated";
}

std::string verdictError(const JobKind &K, const JobResult &R,
                         bool RequireHit) {
  if (!R.Known)
    return K.Name + ": daemon does not know the job";
  if (R.Job != K.Name)
    return K.Name + ": result is for " + R.Job;
  if (K.ExpectHolds) {
    if (!R.Holds || !R.Complete)
      return K.Name + ": expected Holds, got " +
             (R.Diagnostic.empty() ? std::string("no diagnostic")
                                   : R.Diagnostic.substr(0, 160));
  } else {
    // Refuted means a counterexample, never a truncation or timeout.
    if (R.Holds)
      return K.Name + ": a broken lock was certified";
    if (coverageOf(R) != "refuted")
      return K.Name + ": expected a counterexample, got " +
             R.Diagnostic.substr(0, 160);
  }
  if (RequireHit && K.ExpectHolds && R.CertHits == 0)
    return K.Name + ": warm-store job was not served from the store";
  return "";
}

std::string exchangeError(bool TransportOk, const std::string &TransportErr,
                          const VerifyResponse &Resp, const std::string &Job) {
  if (!TransportOk)
    return Job + ": transport error: " + TransportErr;
  if (!Resp.Ok)
    return Job + ": rejected: " + Resp.Error;
  if (Resp.Results.size() != 1)
    return Job + ": expected 1 result, got " +
           std::to_string(Resp.Results.size());
  return "";
}

void RunResult::fail(const std::string &Why) {
  if (Failed < 5)
    std::printf("FAILED %s\n", Why.c_str());
  ++Failed;
}

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  std::size_t Lo = static_cast<std::size_t>(Pos);
  std::size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return V.empty() ? 0 : S / static_cast<double>(V.size());
}

double wallNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpuNow() {
  timespec Ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &Ts);
  return static_cast<double>(Ts.tv_sec) + static_cast<double>(Ts.tv_nsec) * 1e-9;
}

double currentRssMb() {
  long Pages = 0, Resident = 0;
  if (std::FILE *F = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(F, "%ld %ld", &Pages, &Resident) != 2)
      Resident = 0;
    std::fclose(F);
  }
  return static_cast<double>(Resident) *
         static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0;
}

double fileKb(const std::string &Path) {
  std::error_code Ec;
  auto N = std::filesystem::file_size(Path, Ec);
  return Ec ? 0 : static_cast<double>(N) / 1024.0;
}

std::vector<std::string> listFiles(const std::string &Dir) {
  std::vector<std::string> Out;
  std::error_code Ec;
  for (const auto &E : std::filesystem::directory_iterator(Dir, Ec))
    Out.push_back(E.path().string());
  std::sort(Out.begin(), Out.end());
  return Out;
}

} // namespace certbench
