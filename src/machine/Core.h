//===- machine/Core.h - One CPU's workload on its LAsm VM ------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The program transitions every machine shares (§3.1): one CPU's — on
/// the §5 multithreaded machine, one thread's — workload running on its
/// LAsm VM, executing instructions, private primitive calls and shared
/// primitive calls.  The machines differ only in where scheduling may
/// interleave: the query-point MultiCoreMachine (Lx86[D]) and the
/// ThreadedMachine run local code up to the next shared primitive, the
/// HardwareMachine (Mx86) one instruction per cycle.
///
/// Every primitive call goes through Core::call, so the primitive contract
/// holds in one place on all three machines: a primitive the layer lacks,
/// or one that gets stuck, faults its caller; only a shared primitive
/// marked MayBlock may return Blocked, and only MayBlock primitives are
/// dry-run; a private primitive appends no events; local writes stay
/// inside the caller's local memory; events reach the log through
/// appendFolded.
///
/// The log, the fold and the local memory belong to the machine (threads
/// of one CPU share its local memory, §5.5), so a Core takes them per
/// call.  A primitive reads the shared state from the fold alone; the log
/// is only appended to, and quoted in fault messages.  A fault is
/// reported as a message for the machine to prefix with the caller's id.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_CORE_H
#define CCAL_MACHINE_CORE_H

#include "core/LayerInterface.h"
#include "lasm/Vm.h"
#include "support/Check.h"

#include <map>
#include <string>
#include <vector>

namespace ccal {

/// One client call a CPU performs, in order.
struct CpuWorkItem {
  std::string Fn;
  std::vector<std::int64_t> Args;
};

/// Each participant's return values so far, by id: a machine's returns()
/// and an outcome's Returns.
using ReturnMap = std::map<ThreadId, std::vector<std::int64_t>>;

/// Rewrites \p Out to hold exactly the (id, returns) pairs \p Each hands
/// to the callback it is given, which it must do in increasing id order.
/// Nodes and vectors of ids \p Out already holds are reused, so rewriting
/// one outcome slot after another from the same machine allocates nothing
/// once the vectors have grown.
template <typename EachFn> void writeReturns(ReturnMap &Out, EachFn Each) {
  auto It = Out.begin();
  Each([&](ThreadId Id, const std::vector<std::int64_t> &Rets) {
    while (It != Out.end() && It->first < Id)
      It = Out.erase(It);
    if (It == Out.end() || It->first != Id)
      It = Out.emplace_hint(It, Id, Rets);
    else
      It->second = Rets;
    ++It;
  });
  Out.erase(It, Out.end());
}

/// One CPU's (or thread's) copyable execution state: its VM, its place in
/// the workload, the returns so far, and the primitive the VM is paused
/// at.  The program, the workload and the paused-at primitive are
/// borrowed from the machine's config, which outlives every copy, so
/// copying a Core writes no reference count.
class Core {
public:
  /// Where a local run stopped.
  enum class Stop {
    Idle,     ///< the workload is finished
    AtShared, ///< paused at a shared primitive: pending() is it
    Faulted,
  };

  Core(const AsmProgramPtr &Program, ThreadId Id,
       const std::vector<CpuWorkItem> &Items)
      : Machine(Program), Id(Id), Items(&Items) {}

  /// True when every work item has returned.
  bool finished() const { return !Active && NextWork == Items->size(); }

  /// The primitive the VM is paused at, resolved once when it paused;
  /// null while no call is pending.
  const Primitive *pending() const { return Pending; }

  /// Return values of the completed work items, in order.
  const std::vector<std::int64_t> &returns() const { return Returns; }

  /// Runs local code — instructions and private primitive calls — up to
  /// the next shared primitive or the end of the workload.  \p Budget
  /// bounds each VM run and the private calls of one slice; running out
  /// of either is a divergence fault.
  Stop runLocal(const LayerInterface &Layer, std::uint64_t Budget, Log &L,
                FoldValue &Fold, std::vector<std::int64_t> &Mem,
                std::string &Why);

  /// One hardware cycle of Mx86 that is not a call: a single instruction,
  /// starting the next work item first when none runs.  A VM that pauses
  /// makes the call pending for the next cycle.  False after a fault.
  bool runInstruction(const LayerInterface &Layer,
                      std::vector<std::int64_t> &Mem, std::string &Why);

  /// True when the pending primitive (there must be one) blocks on the
  /// shared state \p Fold.  Only a primitive marked MayBlock can, so only
  /// such a one is dry-run; primitives are deterministic in the shared
  /// state, so the dry run is exact.
  bool blocked(const FoldValue &Fold,
               const std::vector<std::int64_t> &Mem) const {
    return Pending->MayBlock && dryRunBlocks(Fold, Mem);
  }

  /// Calls the pending primitive, appends its events to \p L and \p Fold,
  /// applies its local writes to \p Mem and resumes the VM with its return
  /// value.  The primitive reads \p Seen: the machine's fold, or under a
  /// weak memory model the fold of the view its read has.  False after a
  /// fault.
  bool call(const FoldValue &Seen, Log &L, FoldValue &Fold,
            std::vector<std::int64_t> &Mem, std::string &Why);

private:
  void startNext();
  bool dryRunBlocks(const FoldValue &Fold,
                    const std::vector<std::int64_t> &Mem) const;
  /// Records how a VM run ended: a returned work item, a trap, or a pause
  /// at a primitive, which is resolved in \p Layer.  False after a fault.
  bool ranTo(Vm::Status St, const LayerInterface &Layer, std::string &Why);
  /// The fault texts, built off the per-step path.
  std::string unknownPrim(const LayerInterface &Layer) const;
  static std::string stuck(const Primitive &P, const Log &L);
  static std::string blockedUnmarked(const Primitive &P);

  Vm Machine;
  ThreadId Id;
  const std::vector<CpuWorkItem> *Items;
  std::size_t NextWork = 0;
  bool Active = false; ///< a work item is running in the VM
  /// Points into the layer's node-based primitive map.
  const Primitive *Pending = nullptr;
  std::vector<std::int64_t> Returns;
};

// runLocal() and call() run on every step of every explored state, so
// they are defined here, where the machines can inline them.

inline Core::Stop Core::runLocal(const LayerInterface &Layer,
                                 std::uint64_t Budget, Log &L,
                                 FoldValue &Fold,
                                 std::vector<std::int64_t> &Mem,
                                 std::string &Why) {
  std::uint64_t PrivateCalls = 0;
  while (true) {
    if (++PrivateCalls > Budget) {
      Why = "local slice diverged (private-primitive loop?)";
      return Stop::Faulted;
    }
    if (!Active) {
      if (finished())
        return Stop::Idle;
      startNext();
    }
    if (!ranTo(Machine.run(Mem, Budget), Layer, Why))
      return Stop::Faulted;
    if (!Pending)
      continue; // the work item returned
    if (Pending->Shared)
      return Stop::AtShared;
    // Private primitive: silent, executed immediately.
    if (!call(Fold, L, Fold, Mem, Why))
      return Stop::Faulted;
  }
}

inline bool Core::ranTo(Vm::Status St, const LayerInterface &Layer,
                        std::string &Why) {
  if (St == Vm::Status::AtPrim) {
    Pending = Layer.lookup(Machine.primKind());
    if (!Pending)
      Why = unknownPrim(Layer);
    return Pending != nullptr;
  }
  if (St == Vm::Status::Error) {
    Why = Machine.error();
    return false;
  }
  CCAL_CHECK(St == Vm::Status::Done, "unexpected VM status");
  Returns.push_back(Machine.result());
  Active = false;
  ++NextWork;
  return true;
}

inline bool Core::call(const FoldValue &Seen, Log &L, FoldValue &Fold,
                       std::vector<std::int64_t> &Mem, std::string &Why) {
  const Primitive *P = Pending;
  Pending = nullptr;
  std::optional<PrimResult> Res =
      P->Sem(PrimCall{Id, Machine.primArgs(), &Seen, &Mem});
  if (!Res) {
    Why = stuck(*P, L);
    return false;
  }
  // Only a parked shared primitive is dry-run, so only a shared one marked
  // MayBlock may block.
  if (Res->Blocked && !(P->Shared && P->MayBlock)) {
    Why = blockedUnmarked(*P);
    return false;
  }
  // Blocked is checked against the FULL log's fold by the dry run; a
  // weak-ordered primitive must never block (its visible fold may differ
  // from the full one, which would make enabledness unsound), and the
  // blocking primitives (atomic lock specs) keep their SeqCst defaults.
  CCAL_CHECK(!Res->Blocked, "step: blocked callers are not schedulable");
  CCAL_CHECK(P->Shared || Res->Events.empty(),
             "private primitives must not emit events");
  appendFolded(L, Fold, std::move(Res->Events));
  for (auto [Addr, V] : Res->LocalWrites) {
    CCAL_CHECK(Addr >= 0 && static_cast<size_t>(Addr) < Mem.size(),
               "primitive local write out of range");
    Mem[static_cast<size_t>(Addr)] = V;
  }
  Machine.resumePrim(Res->Ret);
  return true;
}

} // namespace ccal

#endif // CCAL_MACHINE_CORE_H
