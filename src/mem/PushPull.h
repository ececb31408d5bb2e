//===- mem/PushPull.h - Push/pull shared-memory model ----------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The push/pull memory model (§3.1, Fig. 6/8): every shared memory
/// location has an ownership status; `pull(b)` takes ownership from "free"
/// to "owned by c" and materializes the current contents into c's local
/// copy, `push(b)` publishes c's local copy into the log and frees the
/// ownership.  Pulling a non-free location, or pushing a location one does
/// not own, is a potential data race and makes the machine *stuck*; race
/// freedom is verified by showing no execution gets stuck.
///
/// Shared contents travel inside the events themselves (`c.push(b, v)`),
/// so the replay function `Rshared` reconstructs both ownership and
/// contents from the log alone (Fig. 8).
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MEM_PUSHPULL_H
#define CCAL_MEM_PUSHPULL_H

#include "core/LayerInterface.h"
#include "core/Replay.h"

#include <map>
#include <optional>

namespace ccal {

/// Event kinds used by the model.
inline const KindId PullEventKind{"pull"};
inline const KindId PushEventKind{"push"};

/// Replay state of one shared location.
struct CellState {
  std::vector<std::int64_t> Contents;
  std::optional<ThreadId> Owner; ///< nullopt = free

  bool operator==(const CellState &O) const {
    return Contents == O.Contents && Owner == O.Owner;
  }
};

/// Replay state of the whole shared memory: location -> cell.
using SharedMemState = std::map<std::int64_t, CellState>;

/// Declares the shared locations of a machine, their sizes, their initial
/// contents, and where each CPU's local copy of a location lives in its
/// CPU-local memory.  Produces the `Rshared` replayer and installs the
/// pull/push primitives of the CPU-local interface `Lx86[c]`.
class PushPullModel {
public:
  struct Location {
    std::int64_t Loc = 0;       ///< the shared location id `b`
    std::int32_t LocalBase = 0; ///< address of the local copy
    std::int32_t Size = 1;      ///< number of words
    std::vector<std::int64_t> Init;
  };

  /// Registers location \p Loc; ids must be fresh.
  void addLocation(Location Loc);

  /// The replay function `Rshared` over full logs (Fig. 8): stuck exactly
  /// when a race occurred.
  Replayer<SharedMemState> replayer() const;

  /// Installs `pull` and `push` shared primitives into \p L, and declares
  /// `Rshared` as a part of L's fold, which both read.
  ///
  /// pull(b):  appends `c.pull(b)`, gets stuck if b is not free, and
  ///           delivers the replayed contents into the caller's local copy.
  /// push(b):  reads the caller's local copy, appends `c.push(b, vals)`,
  ///           and gets stuck if the caller does not own b.
  void installPrims(LayerInterface &L) const;

private:
  std::map<std::int64_t, Location> Locations;
};

} // namespace ccal

#endif // CCAL_MEM_PUSHPULL_H
