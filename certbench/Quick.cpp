//===- certbench/Quick.cpp - the benchmark's own quick test ---------------===//
//
// Exercises every verdict check in seconds: first on synthesized results
// that each check must reject (a certified broken lock, a truncation
// passed off as a refutation, a warm job that missed the store, transport
// errors, rejections, truncated batches), then live on the small catalog
// jobs through certd, cold and warm, including the traced self-check.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>

using namespace ccal::serve;

namespace certbench {

namespace {

int expectCheck(const char *What, const std::string &Got, bool WantError) {
  bool Ok = Got.empty() != WantError;
  std::printf("%s %s%s%s\n", Ok ? "ok  " : "FAIL", What,
              Got.empty() ? "" : " -> ", Got.c_str());
  return Ok ? 0 : 1;
}

const JobKind &kindNamed(const std::string &Name) {
  for (const JobKind &K : catalogKinds())
    if (K.Name == Name)
      return K;
  return heavyKind();
}

} // namespace

int runQuickSelfTest(const std::string &WorkDir) {
  int Failures = 0;
  const JobKind &Good = kindNamed("ticket.2cpu");
  const JobKind &Broken = kindNamed("ticket.2cpu.ra.broken");

  JobResult Holds;
  Holds.Job = Good.Name;
  Holds.Holds = Holds.Complete = true;
  Holds.CertHits = 1;
  Failures += expectCheck("correct job holds", verdictError(Good, Holds, true),
                          false);
  JobResult Missed = Holds;
  Missed.CertHits = 0;
  Failures += expectCheck("warm job that missed the store",
                          verdictError(Good, Missed, true), true);
  Failures += expectCheck("cold job needs no hit",
                          verdictError(Good, Missed, false), false);
  JobResult Fails = Holds;
  Fails.Holds = false;
  Fails.Diagnostic = "implementation machine violation: x";
  Failures += expectCheck("correct job refuted", verdictError(Good, Fails, false),
                          true);
  JobResult Trunc = Holds;
  Trunc.Holds = Trunc.Complete = false;
  Trunc.Diagnostic = "implementation exploration is incomplete (job timeout)";
  Failures += expectCheck("correct job truncated",
                          verdictError(Good, Trunc, false), true);
  JobResult Unknown = Holds;
  Unknown.Known = false;
  Failures += expectCheck("unknown job", verdictError(Good, Unknown, false),
                          true);
  JobResult Other = Holds;
  Other.Job = "mcs.2cpu";
  Failures += expectCheck("result for another job",
                          verdictError(Good, Other, false), true);

  JobResult Refuted = Fails;
  Refuted.Job = Broken.Name;
  Refuted.Complete = false; // the counterexample stopped the exploration
  Failures += expectCheck("broken twin refuted",
                          verdictError(Broken, Refuted, true), false);
  JobResult Certified = Holds;
  Certified.Job = Broken.Name;
  Failures += expectCheck("broken twin certified",
                          verdictError(Broken, Certified, false), true);
  JobResult BrokenTrunc = Trunc;
  BrokenTrunc.Job = Broken.Name;
  Failures += expectCheck("broken twin truncated, not refuted",
                          verdictError(Broken, BrokenTrunc, false), true);

  VerifyResponse Resp;
  Resp.Ok = true;
  Resp.Results = {Holds};
  Failures += expectCheck("one result delivered",
                          exchangeError(true, "", Resp, Good.Name), false);
  Failures += expectCheck("transport error",
                          exchangeError(false, "EPIPE", Resp, Good.Name), true);
  VerifyResponse Rejected;
  Rejected.Error = "queue full";
  Failures += expectCheck("rejected request",
                          exchangeError(true, "", Rejected, Good.Name), true);
  VerifyResponse Empty;
  Empty.Ok = true;
  Failures += expectCheck("truncated batch",
                          exchangeError(true, "", Empty, Good.Name), true);

  // Live: every catalog verdict through certd, cold and warm, untraced
  // (short window) and traced (with the counter self-check).
  for (const char *Name : {"catalog-cold", "catalog-warm"}) {
    const WorkloadSpec &W = *findWorkload(Name);
    RunResult E = runEndToEnd(W, 1, 0.3, WorkDir + "/" + Name + "-e2e");
    Failures += expectCheck(
        (std::string(Name) + " end to end").c_str(),
        E.Correct && E.Failed == 0 ? "" : "failed jobs", false);
    RunResult T = runTraced(W, WorkDir + "/" + Name + "-trace", "");
    Failures += expectCheck(
        (std::string(Name) + " traced self-check").c_str(),
        T.Correct && T.Failed == 0 ? "" : "failed checks", false);
  }
  std::printf("quick self-test: %d failure(s)\n", Failures);
  return Failures;
}

} // namespace certbench
