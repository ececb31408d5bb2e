//===- support/Intern.h - Interned strings ---------------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-global, thread-safe string interner mapping event-kind
/// strings to dense integer ids.  Event kinds are drawn from a small fixed
/// vocabulary (the primitive names of the layer interfaces plus "sched"),
/// yet every event used to carry its kind as a heap std::string — copied
/// on every snapshot, compared byte-wise in every replay fold, hashed
/// byte-wise in every dedup probe.  A KindId is 4 bytes, compares and
/// copies as an integer, and resolves back to its string in O(1).
///
/// Interning is explicit.  Interning a string costs a content hash and a
/// table probe, so a conversion hidden in a comparison such as
/// `E.Kind == "FAI_t"` pays that on every explored state (about a third of
/// the reference certification job's samples).  A string becomes a KindId
/// only through the explicit constructors: each kind is interned once
/// where it is named, and hot paths compare integers.
///
/// Determinism contract: a KindId's *id* depends on interning order (which
/// differs across runs and across Explorer workers), so ids must never
/// leak into hashes, certificates, or any ordering the seed baseline
/// pins.  Everything observable goes through the string: strHash() is a
/// content hash computed once at intern time, operator< compares the
/// resolved strings, and CertJson serializes str().  Ids are only ever
/// used for equality and as dense table indices within one process.
///
/// The table is append-only and leaked: entries live until process exit,
/// so `const std::string &` returned by str() is stable forever — hot
/// accessors can hand out references without lifetime hazards.  Reads are
/// lock-free (acquire loads on a fixed open-addressing slot array);
/// writers serialize on a mutex.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_SUPPORT_INTERN_H
#define CCAL_SUPPORT_INTERN_H

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

namespace ccal {

namespace detail {
struct InternEntry {
  std::string Str;
  std::uint64_t ContentHash = 0; ///< Hasher{}.str(Str), interning-order free
};
/// Entry lookup by id (0 is always the empty string).
const InternEntry *internEntryOf(std::uint32_t Id);
} // namespace detail

/// An interned event-kind string.  The string constructors intern, so
/// they are explicit: build a kind once where it is named (a file-local
/// constant, a lambda capture) and compare or construct Events with it.
class KindId {
public:
  /// The empty kind "" (id 0 is pre-interned).
  KindId() = default;

  explicit KindId(std::string_view S) : Id(idOf(S)) {}
  explicit KindId(const std::string &S) : Id(idOf(S)) {}
  explicit KindId(const char *S) : Id(idOf(S)) {}

  std::uint32_t id() const { return Id; }
  bool empty() const { return Id == 0; }

  /// The interned string; the reference is stable for the process
  /// lifetime (entries are never freed).
  const std::string &str() const { return detail::internEntryOf(Id)->Str; }
  const char *c_str() const { return str().c_str(); }

  /// Content hash of the string, cached at intern time — identical across
  /// processes and interning orders, so it is safe inside structural
  /// hashes (hashEvent) that the seed baseline depends on.
  std::uint64_t strHash() const {
    return detail::internEntryOf(Id)->ContentHash;
  }

  friend bool operator==(KindId A, KindId B) { return A.Id == B.Id; }
  friend bool operator!=(KindId A, KindId B) { return A.Id != B.Id; }

  /// String order, NOT id order: kind ids are assigned in interning order,
  /// which is nondeterministic across worker threads, while containers
  /// ordered by kind (Event::operator<, canonical-log sorts) must match
  /// the seed baseline byte for byte.
  friend bool operator<(KindId A, KindId B) {
    return A.Id != B.Id && A.str() < B.str();
  }

private:
  static std::uint32_t idOf(std::string_view S);

  std::uint32_t Id = 0;
};

/// gtest / diagnostics printing.
std::ostream &operator<<(std::ostream &OS, KindId K);

} // namespace ccal

#endif // CCAL_SUPPORT_INTERN_H
