//===- obs/Metrics.cpp - Low-overhead metrics registry ----------------------===//

#include "obs/Metrics.h"

#include "obs/Trace.h"
#include "support/Clock.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>

using namespace ccal;
using namespace ccal::obs;

namespace {

std::atomic<bool> Enabled{false};

/// One registered metric; plain integers guarded by the registry mutex.
struct Metric {
  MetricSample::Kind K = MetricSample::Kind::Counter;
  std::uint64_t Count = 0;
  std::int64_t Value = 0;
  std::uint64_t TotalNs = 0;
};

struct Registry {
  std::mutex Mu;
  std::map<std::string, Metric> Metrics;
};

Registry &registry() {
  // Leaked on purpose: the trace exit hook may snapshot metrics after
  // static destructors would have torn a plain static down.
  static Registry *R = new Registry;
  return *R;
}

Metric &entry(Registry &R, const std::string &Name, MetricSample::Kind K) {
  Metric &M = R.Metrics[Name];
  M.K = K; // last writer wins; names are kind-disjoint by convention
  return M;
}

/// Env-driven enablement runs before main so every binary honors
/// CCAL_TRACE without code changes.
struct EnvInit {
  EnvInit() { initFromEnv(); }
} EnvInitializer;

} // namespace

bool obs::enabled() { return Enabled.load(std::memory_order_relaxed); }

void obs::setEnabled(bool On) {
  Enabled.store(On, std::memory_order_relaxed);
}

bool obs::initFromEnv() {
  auto Set = [](const char *Var) {
    const char *V = std::getenv(Var);
    return V && V[0] != '\0' && !(V[0] == '0' && V[1] == '\0');
  };
  if (Set("CCAL_TRACE") || Set("CCAL_METRICS"))
    setEnabled(true);
  return enabled();
}

std::uint64_t obs::nowNs() {
  // One process-wide origin shared with the audit recorder (see
  // support/Clock.h for why divergent clocks would corrupt audit
  // precedence).
  return support::monotonicNowNs();
}

void obs::counterAdd(const std::string &Name, std::uint64_t Delta) {
  if (!enabled())
    return;
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  entry(R, Name, MetricSample::Kind::Counter).Count += Delta;
}

void obs::gaugeSet(const std::string &Name, std::int64_t Value) {
  if (!enabled())
    return;
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  entry(R, Name, MetricSample::Kind::Gauge).Value = Value;
}

void obs::timerRecordNs(const std::string &Name, std::uint64_t Ns) {
  if (!enabled())
    return;
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  Metric &M = entry(R, Name, MetricSample::Kind::Timer);
  ++M.Count;
  M.TotalNs += Ns;
}

std::uint64_t obs::counterValue(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  auto It = R.Metrics.find(Name);
  return It == R.Metrics.end() ? 0 : It->second.Count;
}

std::int64_t obs::gaugeValue(const std::string &Name) {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  auto It = R.Metrics.find(Name);
  return It == R.Metrics.end() ? 0 : It->second.Value;
}

std::size_t obs::metricsCount() {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  return R.Metrics.size();
}

std::vector<MetricSample> obs::metricsSnapshot() {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  std::vector<MetricSample> Out;
  Out.reserve(R.Metrics.size());
  for (const auto &[Name, M] : R.Metrics) {
    MetricSample S;
    S.Name = Name;
    S.K = M.K;
    S.Count = M.Count;
    S.Value = M.Value;
    S.TotalNs = M.TotalNs;
    Out.push_back(std::move(S));
  }
  return Out;
}

std::string obs::metricsJson() {
  std::vector<MetricSample> Snap = metricsSnapshot();
  auto Emit = [&Snap](std::string &Out, MetricSample::Kind K,
                      const char *Section,
                      const std::function<std::string(const MetricSample &)>
                          &Render) {
    Out += "  \"";
    Out += Section;
    Out += "\": {";
    bool First = true;
    for (const MetricSample &S : Snap) {
      if (S.K != K)
        continue;
      if (!First)
        Out += ",";
      First = false;
      Out += "\n    \"" + S.Name + "\": " + Render(S);
    }
    Out += First ? "}" : "\n  }";
  };
  std::string Out = "{\n";
  Emit(Out, MetricSample::Kind::Counter, "counters",
       [](const MetricSample &S) { return std::to_string(S.Count); });
  Out += ",\n";
  Emit(Out, MetricSample::Kind::Gauge, "gauges",
       [](const MetricSample &S) { return std::to_string(S.Value); });
  Out += ",\n";
  Emit(Out, MetricSample::Kind::Timer, "timers", [](const MetricSample &S) {
    return "{\"count\": " + std::to_string(S.Count) +
           ", \"total_ns\": " + std::to_string(S.TotalNs) + "}";
  });
  Out += "\n}\n";
  return Out;
}

void obs::metricsReset() {
  Registry &R = registry();
  std::lock_guard<std::mutex> L(R.Mu);
  R.Metrics.clear();
}
