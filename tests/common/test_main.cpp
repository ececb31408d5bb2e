//===- tests/common/test_main.cpp - gtest main with fuzz replay --------------===//
//
// The randomized suites (compcertx fuzz, audit property tests) link
// this main instead of gtest_main so failing inputs dumped by
// tests/common/fuzz_support.h can be fed back in:
//
//   ./compcertx_test --ccal-fuzz-replay=ccal_fuzz_clightx_seed42.txt
//
// The flag is stripped before InitGoogleTest so gtest's own flag parsing
// never sees it; the FuzzReplayTest in each suite picks the path up via
// fuzzReplayPath() and re-runs the checker on the dumped input.
//
//===----------------------------------------------------------------------===//

#include "tests/common/fuzz_support.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>

int main(int argc, char **argv) {
  const char *Flag = "--ccal-fuzz-replay=";
  int Out = 1;
  for (int I = 1; I < argc; ++I) {
    if (std::strncmp(argv[I], Flag, std::strlen(Flag)) == 0) {
      ccal::test::setFuzzReplayPath(argv[I] + std::strlen(Flag));
      continue; // strip the flag
    }
    argv[Out++] = argv[I];
  }
  argc = Out;
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
