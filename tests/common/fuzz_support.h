//===- tests/common/fuzz_support.h - Fuzz failure dump & replay -*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery for the randomized suites: when a fuzz or property
/// test fails it dumps the failing seed and a self-contained reproduction
/// (the generated ClightX program, or the generated trace) to a
/// file in the test working directory; `--ccal-fuzz-replay=<file>` (parsed
/// by tests/common/test_main.cpp) feeds such a file back through the same
/// checker; and the checked-in corpus under tests/corpus/ replays past
/// failures on every CI run.
///
/// Dump format: a header line
///   // ccal-fuzz-dump kind=<kind> seed=<seed>
/// followed by the kind-specific body verbatim.  Each suite defines what
/// its body means; the header is enough for any suite to recognize (and
/// skip) the kinds it does not own.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_TESTS_COMMON_FUZZ_SUPPORT_H
#define CCAL_TESTS_COMMON_FUZZ_SUPPORT_H

#include <cstdint>
#include <string>
#include <vector>

namespace ccal {
namespace test {

/// Path passed via --ccal-fuzz-replay= (empty when the flag was absent).
const std::string &fuzzReplayPath();

/// Stores the replay path; called by the custom gtest main.
void setFuzzReplayPath(std::string Path);

/// A parsed dump file.
struct FuzzDump {
  std::string Kind;
  std::uint64_t Seed = 0;
  std::string Body; ///< everything after the header line, verbatim
};

/// Writes `ccal_fuzz_<kind>_seed<seed>.txt` in the current working
/// directory and returns its path ("" if the file could not be written —
/// the caller's assertion message still carries the body).
std::string dumpFailure(const std::string &Kind, std::uint64_t Seed,
                        const std::string &Body);

/// Parses a dump file; returns false (with \p Error set) on missing file
/// or malformed header.
bool readFuzzDump(const std::string &Path, FuzzDump &Out, std::string &Error);

/// All dump files of kind \p Kind in directory \p Dir (sorted by name;
/// empty when the directory is missing).  Used by the corpus regression
/// tests over CCAL_CORPUS_DIR.
std::vector<std::string> corpusFiles(const std::string &Dir,
                                     const std::string &Kind);

} // namespace test
} // namespace ccal

#endif // CCAL_TESTS_COMMON_FUZZ_SUPPORT_H
