//===- obs/Metrics.h - Low-overhead metrics registry -----------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide metrics registry: named counters, gauges and timers,
/// behind one atomic enablement flag.  The paper's evaluation (§6) is
/// built on measurement — proof effort, compilation stages, lock latency —
/// and the model-side subsystems (Explorer, refinement checkers, CompCertX
/// pipeline, certificate store, certd) report into this registry so the
/// numbers behind BENCH_*.json are inspectable and assertable rather than
/// ad-hoc printouts.  The runtime locks do not: every registry call takes
/// one global mutex, which has no place on an acquire path, so lock
/// latency and contention come from the audit recorder's per-operation
/// timestamps (audit/Recorder.h) instead.
///
/// Cost model.  Every recording call starts with one relaxed atomic load
/// of the enablement flag; when disabled (the default) nothing else
/// happens and the registry stays empty — "no registry entries" is a
/// tested property, not an aspiration.  Instrumented subsystems keep
/// their own local tallies on hot paths (the Explorer's per-worker
/// shards, the optimizer's stats struct) and publish aggregates once per
/// run, so enabling metrics does not perturb the measured loops either.
///
/// Enablement: programmatic (`obs::setEnabled`) or the `CCAL_TRACE`
/// environment variable (see obs/Trace.h for the file-dumping forms).
///
/// Thread safety: all registry operations are safe to call concurrently
/// (the parallel Explorer's workers and certd's job workers do); the
/// registry map is mutex-guarded and values are plain integers under that
/// mutex.  The CI TSan job drives this concurrently on purpose.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_OBS_METRICS_H
#define CCAL_OBS_METRICS_H

#include <cstdint>
#include <string>
#include <vector>

namespace ccal {
namespace obs {

/// True when the observability layer records anything at all.  One
/// relaxed atomic load — the only cost instrumentation pays when off.
bool enabled();

/// Flips the global enablement flag (sticky; tests and benches flip it
/// around the region they measure).
void setEnabled(bool On);

/// Reads CCAL_TRACE / CCAL_METRICS and enables the layer when either is
/// set to a non-empty, non-"0" value; called once automatically before
/// main via a static initializer.  Returns the resulting enablement.
bool initFromEnv();

/// A snapshot of one registered metric.
struct MetricSample {
  enum class Kind { Counter, Gauge, Timer };
  std::string Name;
  Kind K = Kind::Counter;
  std::uint64_t Count = 0;  ///< counter value / timer count
  std::int64_t Value = 0;   ///< gauge value
  std::uint64_t TotalNs = 0; ///< timers: accumulated nanoseconds
};

/// Adds \p Delta to counter \p Name (created on first use).  Counters are
/// monotone: there is no decrement.
void counterAdd(const std::string &Name, std::uint64_t Delta = 1);

/// Sets gauge \p Name to \p Value (created on first use).
void gaugeSet(const std::string &Name, std::int64_t Value);

/// Adds one duration observation to timer \p Name.
void timerRecordNs(const std::string &Name, std::uint64_t Ns);

/// Current value of counter \p Name (0 when absent — a disabled run has
/// no entries).
std::uint64_t counterValue(const std::string &Name);

/// Current value of gauge \p Name (0 when absent).
std::int64_t gaugeValue(const std::string &Name);

/// Number of registered metrics (0 while disabled — recording while
/// disabled must not create entries).
std::size_t metricsCount();

/// All registered metrics, sorted by name.
std::vector<MetricSample> metricsSnapshot();

/// The registry as a JSON object {"counters": {...}, "gauges": {...},
/// "timers": {...}} — the structure BENCH_*.json embeds.
std::string metricsJson();

/// Drops every registered metric (tests isolate themselves with this).
void metricsReset();

/// Monotonic nanoseconds since process start (0 origin keeps Chrome trace
/// timestamps small).
std::uint64_t nowNs();

} // namespace obs
} // namespace ccal

#endif // CCAL_OBS_METRICS_H
