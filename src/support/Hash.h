//===- support/Hash.h - Structural hashing helpers -------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One hashing discipline for the whole repository: the splitmix64-based
/// mixer behind the Explorer's outcome dedup (`OutcomeSet` over the log's
/// running hash) and the certificate store's content-addressed keys
/// (cert/CertKey.h).  The `Hasher` accumulator enforces the two rules that
/// make structural hashes trustworthy:
///
///   * every value is avalanched before combining, so adjacent fields act
///     as separated words rather than a raw multiply-add chain;
///   * variable-length data (strings, sequences) is always length-prefixed,
///     so `["ab"]` and `["a","b"]` cannot collide by concatenation.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_SUPPORT_HASH_H
#define CCAL_SUPPORT_HASH_H

#include <cstdint>
#include <string>
#include <vector>

namespace ccal {

/// Finalizer of splitmix64: a full-avalanche 64-bit mixer.  Used to build
/// composite hashes whose fields cannot cancel each other out.
inline std::uint64_t hashMix64(std::uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Folds \p V into the running hash \p Seed, order-sensitively.  Each value
/// is avalanched before combining, so adjacent fields act as separated
/// words rather than a raw multiply-add chain (which lets distinct field
/// sequences collide, e.g. `[1], [2]` vs `[1, 2]` under plain FNV).
/// Callers hashing variable-length sequences must also fold the length.
inline std::uint64_t hashCombine(std::uint64_t Seed, std::uint64_t V) {
  return (Seed ^ hashMix64(V)) * 1099511628211ULL;
}

/// A second mixer and fold, independent of hashMix64/hashCombine: the
/// MurmurHash3 64-bit finalizer, and a rotate before the multiply.  A hash
/// built from these over the same fields as a hashCombine chain collides
/// independently of it, so the pair acts as one 128-bit fingerprint
/// (OutcomeSet::fingerprint).
inline std::uint64_t hashMixAlt64(std::uint64_t X) {
  X = (X ^ (X >> 33)) * 0xff51afd7ed558ccdULL;
  X = (X ^ (X >> 33)) * 0xc4ceb9fe1a85ec53ULL;
  return X ^ (X >> 33);
}
inline std::uint64_t hashCombineAlt(std::uint64_t Seed, std::uint64_t V) {
  return (((Seed << 23) | (Seed >> 41)) ^ hashMixAlt64(V)) *
         0x9fb21c651e98df25ULL;
}

/// Order-sensitive structural hash accumulator.  All adders return *this
/// so field sequences read as one chain:
///
///   Hasher H;
///   H.str(Cfg.Name).u64(Cfg.SliceBudget).i64s(Mem);
///   use(H.value());
///
class Hasher {
public:
  Hasher() = default;
  explicit Hasher(std::uint64_t Seed) : H(Seed) {}

  Hasher &u64(std::uint64_t V) {
    H = hashCombine(H, V);
    return *this;
  }
  Hasher &i64(std::int64_t V) { return u64(static_cast<std::uint64_t>(V)); }
  Hasher &b(bool V) { return u64(V ? 1u : 0u); }

  /// Length-prefixed string hash (8 bytes per combine step).
  Hasher &str(const std::string &S) {
    u64(S.size());
    std::uint64_t Word = 0;
    unsigned Fill = 0;
    for (char C : S) {
      Word = (Word << 8) | static_cast<unsigned char>(C);
      if (++Fill == 8) {
        u64(Word);
        Word = 0;
        Fill = 0;
      }
    }
    if (Fill != 0)
      u64(Word);
    return *this;
  }

  /// Length-prefixed sequences.
  Hasher &i64s(const std::vector<std::int64_t> &Vs) {
    u64(Vs.size());
    for (std::int64_t V : Vs)
      i64(V);
    return *this;
  }
  Hasher &strs(const std::vector<std::string> &Ss) {
    u64(Ss.size());
    for (const std::string &S : Ss)
      str(S);
    return *this;
  }

  std::uint64_t value() const { return H; }

private:
  std::uint64_t H = 0;
};

} // namespace ccal

#endif // CCAL_SUPPORT_HASH_H
