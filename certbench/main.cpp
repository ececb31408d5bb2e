//===- certbench/main.cpp - certification-job benchmark entry point -------===//
//
// certbench --workload <ticket-heavy|catalog-cold|catalog-warm>
//           --seed <n> --seconds <s> --trace <0|1>
// certbench --quick
//
// Prints human-readable lines, a stamp line, and as its last line one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0), the per-layer metrics traced (--trace 1).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>

#include <unistd.h>

#ifndef CERTBENCH_BUILD_TYPE
#define CERTBENCH_BUILD_TYPE "unknown"
#endif

using namespace certbench;
namespace fs = std::filesystem;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "certbench: %s\nusage: certbench --workload "
               "<ticket-heavy|catalog-cold|catalog-warm> --seed <n> "
               "--seconds <s> --trace <0|1>\n       certbench --quick\n",
               Why);
  return 2;
}

/// JSON string body for names and units (which hold no quotes).
std::string quoted(const std::string &S) { return "\"" + S + "\""; }

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload;
  std::uint64_t Seed = 0;
  double Seconds = 0;
  int Trace = -1;
  bool Quick = false, HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    const char *V = I + 1 < Argc ? Argv[I + 1] : nullptr;
    if (A == "--quick") {
      Quick = true;
      continue;
    }
    if (!V)
      return usage(("missing value for " + A).c_str());
    ++I;
    char *End = nullptr;
    if (A == "--workload") {
      Workload = V;
    } else if (A == "--seed") {
      Seed = std::strtoull(V, &End, 10);
      HaveSeed = *V && !*End;
    } else if (A == "--seconds") {
      Seconds = std::strtod(V, &End);
      if (!*V || *End || !(Seconds > 0))
        return usage("--seconds must be a positive number");
    } else if (A == "--trace") {
      if (std::strcmp(V, "0") && std::strcmp(V, "1"))
        return usage("--trace must be 0 or 1");
      Trace = V[0] - '0';
    } else {
      return usage(("unknown argument " + A).c_str());
    }
  }

  registerBrokenTwin();
  const std::string WorkDir =
      ".bench_build/certbench-work-" + std::to_string(::getpid());
  auto Cleanup = [&WorkDir] {
    std::error_code Ec;
    fs::remove_all(WorkDir, Ec);
  };

  if (Quick) {
    int Failures = runQuickSelfTest(WorkDir);
    Cleanup();
    return Failures == 0 ? 0 : 1;
  }

  const WorkloadSpec *W = findWorkload(Workload);
  if (!W)
    return usage(("unknown workload '" + Workload + "'").c_str());
  if (!HaveSeed || Seconds <= 0 || Trace < 0)
    return usage("--seed, --seconds and --trace are required");
  if (std::strcmp(CERTBENCH_BUILD_TYPE, "Release") != 0) {
    std::fprintf(stderr,
                 "certbench: refusing to measure a %s build; configure with "
                 "-DCMAKE_BUILD_TYPE=Release\n",
                 CERTBENCH_BUILD_TYPE);
    return 3;
  }

  std::printf("certbench %s seed=%llu seconds=%g trace=%d\n", W->Name.c_str(),
              static_cast<unsigned long long>(Seed), Seconds, Trace);
  std::string TracePath;
  if (Trace) {
    fs::create_directories(".bench_build/certbench-traces");
    TracePath = ".bench_build/certbench-traces/" + W->Name + "-seed" +
                std::to_string(Seed) + ".json";
  }
  RunResult R = Trace ? runTraced(*W, WorkDir, TracePath)
                      : runEndToEnd(*W, Seed, Seconds, WorkDir);
  Cleanup();

  const bool Correct = R.Correct && R.Failed == 0 && R.Attempted > 0;
  std::printf("failed_share %.6f (%llu of %llu jobs)\n",
              R.Attempted ? static_cast<double>(R.Failed) /
                                static_cast<double>(R.Attempted)
                          : 1.0,
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Attempted));
  std::printf("stamp {\"workload\": %s, \"seed\": %llu, \"seconds\": %g, "
              "\"trace\": %d, \"hardware_threads\": %u, \"build_type\": %s, "
              "\"sequence_len\": %llu}\n",
              quoted(W->Name).c_str(), static_cast<unsigned long long>(Seed),
              Seconds, Trace, std::thread::hardware_concurrency(),
              quoted(CERTBENCH_BUILD_TYPE).c_str(),
              static_cast<unsigned long long>(R.SequenceLen));

  std::string Json = "{\"correct\": " + std::string(Correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(R.Attempted) +
                     ", \"failed\": " + std::to_string(R.Failed) +
                     ", \"metrics\": {";
  for (std::size_t I = 0; I != R.Metrics.size(); ++I) {
    const RunResult::Metric &M = R.Metrics[I];
    char Num[64];
    std::snprintf(Num, sizeof(Num), "%.17g", M.Value);
    Json += (I ? ", " : "") + quoted(M.Name) + ": {\"value\": " + Num +
            ", \"unit\": " + quoted(M.Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
  return 0;
}
