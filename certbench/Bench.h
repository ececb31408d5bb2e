//===- certbench/Bench.h - certification-job benchmark ---------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the certification-job benchmark: the job kinds and
/// their known verdicts, the counters pinned per kind, the verdict checks,
/// small statistics helpers, and the two measuring halves — the certd
/// closed-loop stream (Stream.cpp) and the traced per-layer decomposition
/// (Layers.cpp).  The benchmark only calls the library's public entry
/// points; it never reaches into src/.
///
//===----------------------------------------------------------------------===//

#ifndef CERTBENCH_BENCH_H
#define CERTBENCH_BENCH_H

#include "objects/Harness.h"
#include "serve/Certd.h"
#include "serve/Client.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace certbench {

/// One catalog job the benchmark drives, with its known answer.
struct JobKind {
  std::string Name;
  /// Holds, or refuted by a counterexample.  Only a job that holds stores a
  /// certificate, so only such a job must be a warm-store hit.
  bool ExpectHolds = true;
  /// Builds the harness the catalog job runs (for the traced mode).
  std::function<ccal::ObjectHarness()> Make;
};

/// The heavy reference job, ticket.2cpu.2r.
const JobKind &heavyKind();

/// The six small jobs of the catalog workloads, broken twin included.
const std::vector<JobKind> &catalogKinds();

/// Registers the refuted twin ticket.2cpu.ra.broken with certd's catalog.
void registerBrokenTwin();

/// Threads certd's job context into a harness exactly as the catalog's
/// harness jobs do (cancel token on both sides, Explorer workers).
void applyContext(ccal::ObjectHarness &H, const ccal::serve::JobContext &Ctx);

/// Exploration counters of one job kind.
struct Counters {
  std::uint64_t Schedules = 0;
  std::uint64_t States = 0;
  std::uint64_t Obligations = 0;
  std::string Coverage;
};

/// Counters pinned at the commit that introduced the benchmark; null for an
/// unknown kind.
const Counters *pinnedCounters(const std::string &Kind);

/// Prints \p Got next to the pin and returns true when they differ.  A
/// difference is flagged, never fatal: an intended reduction shows here.
bool reportAgainstPin(const std::string &Kind, const Counters &Got);

/// Why \p R is not the known answer for \p K ("" when it is).  With
/// \p RequireHit a cacheable job must have been served from the store.
std::string verdictError(const JobKind &K, const ccal::serve::JobResult &R,
                         bool RequireHit);

/// Why a one-job verify exchange failed at the transport or protocol
/// level ("" when it delivered exactly one result for \p Job).
std::string exchangeError(bool TransportOk, const std::string &TransportErr,
                          const ccal::serve::VerifyResponse &Resp,
                          const std::string &Job);

// --- statistics ------------------------------------------------------------

/// Linear-interpolation quantile of \p V (0 <= Q <= 1); 0 when empty.
double quantile(std::vector<double> V, double Q);
double median(std::vector<double> V);
double mean(const std::vector<double> &V);

/// Monotonic wall seconds and process CPU seconds.
double wallNow();
double cpuNow();

/// Resident set size of the process now, and its peak so far, in MiB.
double currentRssMb();
double peakRssMb();

/// Size of a file in KiB (0 when absent).
double fileKb(const std::string &Path);

/// Files in \p Dir (full paths, sorted).
std::vector<std::string> listFiles(const std::string &Dir);

// --- the workloads ---------------------------------------------------------

/// How a workload configures certd and its store.
struct WorkloadSpec {
  std::string Name;
  std::vector<const JobKind *> Kinds;
  unsigned Clients = 1;
  unsigned Workers = 1;
  unsigned ThreadsPerJob = 1;
  enum class StoreMode { Off, FreshPerJob, WarmFilled } Store = StoreMode::Off;
  /// Setup repetitions; setup_s is their median.
  unsigned SetupReps = 5;
};

/// The named workload, or null.
const WorkloadSpec *findWorkload(const std::string &Name);

/// The metrics and bookkeeping one run produces.
struct RunResult {
  bool Correct = true;
  std::uint64_t Attempted = 0;
  std::uint64_t Failed = 0;
  /// Ordered (name, value, unit).
  struct Metric {
    std::string Name;
    double Value;
    std::string Unit;
  };
  std::vector<Metric> Metrics;
  std::uint64_t SequenceLen = 0;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  /// Records a failed job with its reason (printed, first few only).
  void fail(const std::string &Why);
};

/// The untraced end-to-end run (Stream.cpp).
RunResult runEndToEnd(const WorkloadSpec &W, std::uint64_t Seed,
                      double Seconds, const std::string &WorkDir);

/// The traced per-layer run (Layers.cpp).  It sends every kind of \p W
/// through certd and decomposes it, so it draws no stream from the seed.
RunResult runTraced(const WorkloadSpec &W, const std::string &WorkDir,
                    const std::string &TracePath);

/// The benchmark's own test: every verdict check, on the small jobs, in
/// seconds (Quick.cpp).  Returns the number of failed checks.
int runQuickSelfTest(const std::string &WorkDir);

// --- the certd rig shared by both modes --------------------------------------

/// One in-process certd plus its connected clients.
class Rig {
public:
  Rig(const WorkloadSpec &W, const std::string &Dir);
  ~Rig();
  Rig(const Rig &) = delete;
  Rig &operator=(const Rig &) = delete;

  /// Starts the daemon, points the store, connects the clients, fills a
  /// warm store and runs one warm-up job per kind.  Failed set-up jobs are
  /// recorded in \p Out.
  bool setUp(RunResult &Out, std::string &Err);

  /// One blocking single-job request on client \p Client; "" on success,
  /// otherwise why the job failed (see verdictError for \p RequireHit).
  std::string runOne(unsigned Client, const JobKind &K,
                     ccal::serve::JobResult &R, double &RttMs,
                     bool RequireHit);

  /// Points the process-wide store at a new empty directory.
  void freshStore();

  /// Counters of each kind from the serial set-up pass.
  const std::map<std::string, Counters> &setupCounters() const {
    return SetupCounters;
  }
  const std::string &storeDir() const { return StoreDir; }
  bool requireHit() const {
    return W.Store == WorkloadSpec::StoreMode::WarmFilled;
  }

  /// Stops the daemon and drops the clients (idempotent).
  void tearDown();

private:
  const WorkloadSpec &W;
  std::string Dir;
  std::string StoreDir;
  unsigned StoreSeq = 0;
  std::unique_ptr<ccal::serve::Certd> Daemon;
  std::vector<ccal::serve::CertClient> Clients;
  std::map<std::string, Counters> SetupCounters;
};

/// Serial job on \p R's client 0 with exploration counters taken from the
/// metrics registry around it (states are not on the wire).
std::string runOneCounted(Rig &R, const JobKind &K,
                          ccal::serve::JobResult &Res, double &RttMs,
                          Counters &C, bool RequireHit);

/// Coverage text of a job result: "exhaustive", or why not.
std::string coverageOf(const ccal::serve::JobResult &R);

} // namespace certbench

#endif // CERTBENCH_BENCH_H
