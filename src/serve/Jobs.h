//===- serve/Jobs.h - certd verification job catalog -----------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon's job catalog.  A verification workload is C++ all the way
/// down — layers are closures, relations are lambdas — so clients cannot
/// ship machines over the wire; instead they name jobs from this catalog
/// and the daemon builds the harness locally.  Built-ins cover the two
/// certified locks at the CPU counts the test suite exercises; tests
/// register synthetic jobs (a blocker for the queue-full path, a
/// schedule-space bomb for the timeout path) through registerJob.
///
/// Every job honours the JobContext cancel token by threading it into the
/// Explorer's options: a cancelled exploration reports Complete=false with
/// the cancel reason as its truncation, the refinement checker then
/// refuses Holds, and the certificate store refuses to persist — the
/// timeout path is fail-closed by construction, never a false "Holds".
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_SERVE_JOBS_H
#define CCAL_SERVE_JOBS_H

#include "serve/Protocol.h"

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace ccal {
namespace serve {

/// What the daemon threads into a running job.
struct JobContext {
  /// Set by the timeout monitor (or shutdown); jobs poll it via the
  /// Explorer's GenericExploreOptions::Cancel.  May be null (no timeout).
  std::shared_ptr<std::atomic<bool>> Cancel;
  /// The truncation diagnostic a cancelled exploration reports.
  std::string CancelReason = "cancelled";
  /// Explorer workers per job (the daemon's ThreadsPerJob knob).
  unsigned Threads = 1;
};

using JobFn = std::function<JobResult(const JobContext &)>;

/// All catalog entries, name-sorted.
struct JobInfo {
  std::string Name;
  std::string Desc;
};
std::vector<JobInfo> listJobs();

/// Runs \p Name under \p Ctx.  Unknown names return Known=false (the
/// daemon answers per-job instead of failing the whole batch).  Fills the
/// JobResult cert traffic fields from the calling thread's store tally
/// (cert::threadTraffic) around the run, so they count exactly the store
/// calls the job makes on that thread.
JobResult runJob(const std::string &Name, const JobContext &Ctx);

/// Registers (or replaces) a job; tests inject deterministic blockers and
/// schedule-space bombs this way.  The function must be callable from any
/// daemon worker thread.
void registerJob(const std::string &Name, const std::string &Desc,
                 JobFn Fn);

} // namespace serve
} // namespace ccal

#endif // CCAL_SERVE_JOBS_H
