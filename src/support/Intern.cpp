//===- support/Intern.cpp - Interned strings -------------------------------===//

#include "support/Intern.h"

#include "support/Check.h"
#include "support/Hash.h"

#include <atomic>
#include <mutex>
#include <ostream>

using namespace ccal;
using ccal::detail::InternEntry;

namespace {

/// Fixed-capacity open-addressing table.  Capacities are generous: kinds
/// are primitive names, a vocabulary of dozens, and the table asserts
/// rather than resizes (resizing would invalidate lock-free readers).
constexpr std::uint32_t SlotBits = 16;
constexpr std::uint32_t NumSlots = 1u << SlotBits;   // probe slots
constexpr std::uint32_t SlotMask = NumSlots - 1;
constexpr std::uint32_t MaxKinds = NumSlots / 2;     // load factor <= 0.5

std::uint64_t contentHashOf(std::string_view S) {
  Hasher H;
  H.u64(S.size());
  std::uint64_t Word = 0;
  unsigned Fill = 0;
  for (char C : S) {
    Word = (Word << 8) | static_cast<unsigned char>(C);
    if (++Fill == 8) {
      H.u64(Word);
      Word = 0;
      Fill = 0;
    }
  }
  if (Fill != 0)
    H.u64(Word);
  return H.value();
}

struct Interner {
  /// Probe slots hold id+1 (0 = empty); published with release stores so
  /// a reader that sees a slot also sees its entry.
  std::atomic<std::uint32_t> Slots[NumSlots];
  /// Dense entries, indexed by id; pointers are stable (entries leak).
  std::atomic<const InternEntry *> Entries[MaxKinds];
  std::atomic<std::uint32_t> Count{0};
  std::mutex WriteMu;

  Interner() {
    for (auto &S : Slots)
      S.store(0, std::memory_order_relaxed);
    for (auto &E : Entries)
      E.store(nullptr, std::memory_order_relaxed);
    // Pre-intern "" as id 0 so a default KindId resolves without probing.
    intern(std::string_view());
  }

  const InternEntry *intern(std::string_view S) {
    const std::uint64_t H = contentHashOf(S);
    std::uint32_t Idx = static_cast<std::uint32_t>(H) & SlotMask;
    // Lock-free fast path: find an existing entry.
    while (true) {
      std::uint32_t V = Slots[Idx].load(std::memory_order_acquire);
      if (V == 0)
        break;
      const InternEntry *E = Entries[V - 1].load(std::memory_order_acquire);
      if (E->ContentHash == H && E->Str == S)
        return E;
      Idx = (Idx + 1) & SlotMask;
    }
    // Miss: take the write lock and re-probe (another thread may have
    // inserted S while we were probing).
    std::lock_guard<std::mutex> L(WriteMu);
    Idx = static_cast<std::uint32_t>(H) & SlotMask;
    while (true) {
      std::uint32_t V = Slots[Idx].load(std::memory_order_acquire);
      if (V == 0)
        break;
      const InternEntry *E = Entries[V - 1].load(std::memory_order_acquire);
      if (E->ContentHash == H && E->Str == S)
        return E;
      Idx = (Idx + 1) & SlotMask;
    }
    std::uint32_t Id = Count.load(std::memory_order_relaxed);
    CCAL_CHECK(Id < MaxKinds, "event-kind interner capacity exhausted");
    auto *E = new InternEntry{std::string(S), H}; // leaked: stable forever
    Entries[Id].store(E, std::memory_order_release);
    Count.store(Id + 1, std::memory_order_relaxed);
    Slots[Idx].store(Id + 1, std::memory_order_release);
    return E;
  }

  const InternEntry *byId(std::uint32_t Id) const {
    const InternEntry *E = Entries[Id].load(std::memory_order_acquire);
    CCAL_CHECK(E, "KindId refers to an unknown intern entry");
    return E;
  }
};

Interner &interner() {
  static Interner *I = new Interner(); // leaked: outlives static dtors
  return *I;
}

} // namespace

const InternEntry *ccal::detail::internEntryOf(std::uint32_t Id) {
  return interner().byId(Id);
}

std::uint32_t KindId::idOf(std::string_view S) {
  if (S.empty())
    return 0;
  Interner &I = interner();
  const std::uint64_t H = contentHashOf(S);
  std::uint32_t Idx = static_cast<std::uint32_t>(H) & SlotMask;
  while (true) {
    std::uint32_t V = I.Slots[Idx].load(std::memory_order_acquire);
    if (V == 0) {
      // Slow path inserts (or finds, under the lock) and we re-probe for
      // the slot value to learn the id.
      I.intern(S);
      Idx = static_cast<std::uint32_t>(H) & SlotMask;
      continue;
    }
    const InternEntry *E = I.Entries[V - 1].load(std::memory_order_acquire);
    if (E->ContentHash == H && E->Str == S)
      return V - 1;
    Idx = (Idx + 1) & SlotMask;
  }
}

std::ostream &ccal::operator<<(std::ostream &OS, KindId K) {
  return OS << K.str();
}
