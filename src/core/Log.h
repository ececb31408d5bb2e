//===- core/Log.h - The global event log -----------------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The global log `l` (§2, §3.1): the list of observable events recording
/// all shared operations, interleaved in chronological order.  All shared
/// abstract state is a replay of the log (core/Replay.h), so the log *is*
/// the shared state of a layer machine.  Machines keep that replay as a
/// fold value advanced on every append, so primitives and invariants read
/// the state without rescanning the log; the log itself remains the
/// output — outcomes, counterexamples, refinement through R.
///
/// Representation: a copy-on-write, append-only chunked sequence.  Sealed
/// chunks of ChunkCap events are immutable and shared between snapshots
/// (copying a log bumps a few refcounts and copies at most ChunkCap-1
/// tail events), which turns the Explorer's per-frame machine copies from
/// O(depth) event clones into effectively O(1).  Invariants:
///
///   * every sealed chunk holds exactly ChunkCap events and is NEVER
///     mutated after sealing (shared_ptr<const Chunk>);
///   * the tail holds size() % ChunkCap events and is exclusively owned
///     by this Log value (copied on copy, so appends never race);
///   * chunk boundaries are a pure function of size(), so two logs with
///     equal contents always have identical chunk structure and
///     operator== can short-circuit on shared chunk pointers.
///
/// The interface is the subset of std::vector<Event> the repository uses;
/// indexing is O(1) (shift/mask — ChunkCap is a power of two).
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CORE_LOG_H
#define CCAL_CORE_LOG_H

#include "core/Event.h"
#include "support/Hash.h"

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

namespace ccal {

/// The global event log.  The paper "cons"es events at the front
/// (`l • e` in §2); we append at the back, so index 0 is the oldest event.
class Log {
  using Chunk = std::vector<Event>;
  using ChunkPtr = std::shared_ptr<const Chunk>;

public:
  static constexpr size_t ChunkCap = 16; // power of two
  static constexpr size_t ChunkShift = 4;
  static constexpr size_t ChunkMask = ChunkCap - 1;

  using value_type = Event;

  Log() = default;
  Log(std::initializer_list<Event> Es) {
    for (const Event &E : Es)
      push_back(E);
  }
  template <typename It> Log(It First, It Last) {
    for (; First != Last; ++First)
      push_back(*First);
  }
  /// Implicit view of a plain event vector as a log, so vector-producing
  /// code (strategy moves, tests) compares against and prints like a Log.
  /// O(n) — the O(1) persistent sharing applies to Log-to-Log copies.
  Log(const std::vector<Event> &Events) : Log(Events.begin(), Events.end()) {}

  size_t size() const { return (Chunks.size() << ChunkShift) + Tail.size(); }
  bool empty() const { return Chunks.empty() && Tail.empty(); }

  const Event &operator[](size_t I) const {
    const size_t C = I >> ChunkShift;
    return C < Chunks.size() ? (*Chunks[C])[I & ChunkMask]
                             : Tail[I & ChunkMask];
  }

  const Event &back() const {
    return Tail.empty() ? Chunks.back()->back() : Tail.back();
  }

  void push_back(Event E) {
    const std::uint64_t KindHash = E.Kind.strHash();
    RunHash = hashCombine(RunHash, hashEvent(E, KindHash));
    RunAlt = hashCombineAlt(RunAlt, E.Tid);
    RunAlt = hashCombineAlt(RunAlt, KindHash);
    RunAlt = hashCombineAlt(RunAlt, E.Args.size());
    for (std::int64_t A : E.Args)
      RunAlt = hashCombineAlt(RunAlt, static_cast<std::uint64_t>(A));
    // Copied logs arrive with a capacity-exact tail; grow it to a full
    // chunk once instead of letting the vector realloc its way up.
    if (Tail.capacity() < ChunkCap)
      Tail.reserve(ChunkCap);
    Tail.push_back(std::move(E));
    if (Tail.size() == ChunkCap) {
      Chunks.push_back(std::make_shared<const Chunk>(std::move(Tail)));
      Tail.clear();
    }
  }

  void clear() {
    Chunks.clear();
    Tail.clear();
    RunHash = HashSeed;
    RunAlt = 0;
  }

  /// Running fold of hashEvent over the contents, maintained on append so
  /// hashLog is O(1) instead of a full walk (the Explorer hashes the log
  /// in every outcome-dedup probe and snapshot hash).
  std::uint64_t runHash() const { return RunHash; }

  /// A second running hash over the same fields, built from hashCombineAlt
  /// (0 for the empty log): the log half of OutcomeSet::fingerprint's
  /// alternate hash, kept on append so a fingerprint never walks the log.
  std::uint64_t runAltHash() const { return RunAlt; }

  /// Compatibility no-op: sealed chunks make bulk pre-allocation moot.
  void reserve(size_t) {}

  /// Bytes physically copied when this log is copied: the value itself,
  /// one shared_ptr per sealed chunk (the chunk contents are shared, not
  /// copied), and the deep-copied tail.  The pre-refactor representation
  /// (std::vector<Event>) copied every event; benches record both.
  size_t snapshotCopyBytes() const {
    return sizeof(Log) + Chunks.size() * sizeof(ChunkPtr) +
           Tail.size() * sizeof(Event);
  }

  bool operator==(const Log &O) const {
    // Unequal running hashes prove inequality without touching contents;
    // equal ones still require the structural check below.
    if (RunHash != O.RunHash)
      return false;
    if (Chunks.size() != O.Chunks.size() || Tail.size() != O.Tail.size())
      return false;
    for (size_t I = 0, E = Chunks.size(); I != E; ++I) {
      if (Chunks[I] == O.Chunks[I])
        continue; // shared prefix: structurally equal by construction
      if (*Chunks[I] != *O.Chunks[I])
        return false;
    }
    return Tail == O.Tail;
  }
  bool operator!=(const Log &O) const { return !(*this == O); }

  /// Random-access const iterator (indexes through the chunk table).
  class const_iterator {
  public:
    using iterator_category = std::random_access_iterator_tag;
    using value_type = Event;
    using difference_type = std::ptrdiff_t;
    using pointer = const Event *;
    using reference = const Event &;

    const_iterator() = default;
    const_iterator(const Log *L, size_t I) : L(L), I(I) {}

    reference operator*() const { return (*L)[I]; }
    pointer operator->() const { return &(*L)[I]; }
    reference operator[](difference_type N) const {
      return (*L)[I + static_cast<size_t>(N)];
    }

    const_iterator &operator++() { ++I; return *this; }
    const_iterator operator++(int) { const_iterator T = *this; ++I; return T; }
    const_iterator &operator--() { --I; return *this; }
    const_iterator operator--(int) { const_iterator T = *this; --I; return T; }
    const_iterator &operator+=(difference_type N) {
      I = static_cast<size_t>(static_cast<difference_type>(I) + N);
      return *this;
    }
    const_iterator &operator-=(difference_type N) { return *this += -N; }
    friend const_iterator operator+(const_iterator A, difference_type N) {
      return A += N;
    }
    friend const_iterator operator+(difference_type N, const_iterator A) {
      return A += N;
    }
    friend const_iterator operator-(const_iterator A, difference_type N) {
      return A -= N;
    }
    friend difference_type operator-(const_iterator A, const_iterator B) {
      return static_cast<difference_type>(A.I) -
             static_cast<difference_type>(B.I);
    }
    friend bool operator==(const_iterator A, const_iterator B) {
      return A.I == B.I;
    }
    friend bool operator!=(const_iterator A, const_iterator B) {
      return A.I != B.I;
    }
    friend bool operator<(const_iterator A, const_iterator B) {
      return A.I < B.I;
    }
    friend bool operator>(const_iterator A, const_iterator B) {
      return A.I > B.I;
    }
    friend bool operator<=(const_iterator A, const_iterator B) {
      return A.I <= B.I;
    }
    friend bool operator>=(const_iterator A, const_iterator B) {
      return A.I >= B.I;
    }

  private:
    const Log *L = nullptr;
    size_t I = 0;
  };
  using iterator = const_iterator;

  const_iterator begin() const { return const_iterator(this, 0); }
  const_iterator end() const { return const_iterator(this, size()); }

private:
  static constexpr std::uint64_t HashSeed = 1469598103934665603ULL;

  std::vector<ChunkPtr> Chunks; ///< sealed, immutable, shared
  Chunk Tail;                   ///< < ChunkCap events, exclusively owned
  std::uint64_t RunHash = HashSeed;
  std::uint64_t RunAlt = 0;
};

/// Appends \p E to \p L (the paper's `l • e`).
inline void logAppend(Log &L, Event E) { L.push_back(std::move(E)); }

/// Appends all of \p Events to \p L in order.
void logAppendAll(Log &L, const std::vector<Event> &Events);

/// Renders the log as "e0 • e1 • ...".
std::string logToString(const Log &L);

/// Number of events with the given participant and kind.
std::uint64_t logCount(const Log &L, ThreadId Tid, KindId Kind);

/// Number of events with the given kind from any participant (one scan).
std::uint64_t logCountKind(const Log &L, KindId Kind);

/// All events of one participant, in order.
Log logFilterTid(const Log &L, ThreadId Tid);

/// All events with one kind, in order.
Log logFilterKind(const Log &L, KindId Kind);

/// The participant holding control after replaying the scheduling events of
/// \p L, or \p Default if the log contains none.
ThreadId logControl(const Log &L, ThreadId Default);

/// Combined hash of all events plus the log length, for dedup tables.
/// (The underlying mixers hashMix64/hashCombine live in support/Hash.h.)
std::uint64_t hashLog(const Log &L);

} // namespace ccal

#endif // CCAL_CORE_LOG_H
