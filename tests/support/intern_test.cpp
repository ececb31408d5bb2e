//===- tests/support/intern_test.cpp - Interned event kinds -------------------===//
//
// The KindId determinism contract (support/Intern.h): ids are stable
// within a process and equality is exact, but everything observable —
// strings, content hashes, ordering — must be independent of interning
// order, because worker threads intern concurrently in nondeterministic
// order while certificates and canonical logs are pinned byte for byte.
//
//===----------------------------------------------------------------------===//

#include "support/Intern.h"

#include "support/Hash.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <type_traits>
#include <vector>

using namespace ccal;

// Interning is never implicit: a kind is interned where it is named, and a
// string literal compared against a kind does not compile.
static_assert(!std::is_convertible_v<const char *, KindId>);
static_assert(!std::is_convertible_v<std::string, KindId>);
static_assert(!std::is_convertible_v<std::string_view, KindId>);
static_assert(std::is_constructible_v<KindId, const char *> &&
              std::is_constructible_v<KindId, std::string> &&
              std::is_constructible_v<KindId, std::string_view>);

TEST(InternTest, RoundTripsStrings) {
  KindId A("acq");
  EXPECT_EQ(A.str(), "acq");
  EXPECT_EQ(std::string(A.c_str()), "acq");
  KindId B(std::string("rel"));
  EXPECT_EQ(B.str(), "rel");
  KindId C(std::string_view("FAI_t"));
  EXPECT_EQ(C.str(), "FAI_t");
}

TEST(InternTest, SameStringSameId) {
  KindId A("intern_test_kind");
  KindId B(std::string("intern_test_kind"));
  EXPECT_EQ(A, B);
  EXPECT_EQ(A.id(), B.id());
  EXPECT_NE(A, KindId("intern_test_other"));
}

TEST(InternTest, EmptyKindIsIdZero) {
  KindId E;
  EXPECT_TRUE(E.empty());
  EXPECT_EQ(E.id(), 0u);
  EXPECT_EQ(E.str(), "");
  EXPECT_EQ(E, KindId(""));
}

TEST(InternTest, IdsAreStableAcrossRepeatedInterning) {
  KindId First("intern_test_stable");
  for (int I = 0; I != 100; ++I)
    EXPECT_EQ(KindId("intern_test_stable").id(), First.id());
}

TEST(InternTest, StrHashIsContentHashNotIdHash) {
  // The cached hash must equal hashing the string directly, so it cannot
  // leak interning order into hashEvent/certificate keys.
  KindId A("intern_test_hash");
  EXPECT_EQ(A.strHash(), Hasher().str("intern_test_hash").value());
  EXPECT_EQ(KindId("").strHash(), Hasher().str("").value());
  EXPECT_NE(A.strHash(), KindId("intern_test_hash2").strHash());
}

TEST(InternTest, OrderingFollowsStringsNotIds) {
  // Intern in an order opposite to the string order: comparisons must
  // still follow the strings.
  KindId Z("intern_test_zzz");
  KindId A("intern_test_aaa");
  EXPECT_LT(Z.str(), std::string("intern_test_zzza"));
  EXPECT_TRUE(A < Z);
  EXPECT_FALSE(Z < A);
  EXPECT_FALSE(A < A);
}

TEST(InternTest, ConcurrentInterningAgrees) {
  // Many threads intern overlapping vocabularies; every thread must see
  // the same id for the same string and round-trip it faithfully.
  const unsigned NumThreads = 8;
  const unsigned Kinds = 64;
  std::vector<std::vector<std::uint32_t>> Ids(
      NumThreads, std::vector<std::uint32_t>(Kinds));
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != NumThreads; ++T)
    Ts.emplace_back([T, &Ids] {
      for (unsigned K = 0; K != Kinds; ++K) {
        std::string S = "intern_test_conc_" + std::to_string(K);
        KindId Id(S);
        EXPECT_EQ(Id.str(), S);
        Ids[T][K] = Id.id();
      }
    });
  for (std::thread &T : Ts)
    T.join();
  std::set<std::uint32_t> Distinct;
  for (unsigned K = 0; K != Kinds; ++K) {
    for (unsigned T = 1; T != NumThreads; ++T)
      EXPECT_EQ(Ids[T][K], Ids[0][K]) << "thread " << T << " kind " << K;
    Distinct.insert(Ids[0][K]);
  }
  EXPECT_EQ(Distinct.size(), Kinds);
}
