//===- machine/MultiCore.h - The multicore machine model -------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multicore machine `Mx86` (§3.1): per-CPU private state (an LAsm VM
/// plus CPU-local memory), shared state represented by the global event
/// log together with the layer's fold over it (core/Replay.h), and two
/// kinds of transitions — program transitions (instructions, private
/// primitive calls, shared primitive calls) and hardware scheduling.
///
/// Instructions and private primitives are silent; shared primitives are
/// the only interleaving points, so the machine runs each CPU's local code
/// deterministically up to its next shared call ("query point") and parks
/// it there.  A step() then executes one parked CPU's shared primitive,
/// appends its events, and advances that CPU to its next query point.
/// Hardware scheduling = the choice of which parked CPU steps; the
/// Explorer enumerates those choices.
///
/// The whole machine state is copyable, enabling snapshot-based DFS.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_MULTICORE_H
#define CCAL_MACHINE_MULTICORE_H

#include "core/LayerInterface.h"
#include "lasm/Vm.h"
#include "machine/MemoryModel.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ccal {

/// One client call a CPU performs, in order.
struct CpuWorkItem {
  std::string Fn;
  std::vector<std::int64_t> Args;
};

/// Immutable description of a machine run: the underlay interface, the
/// linked program every CPU executes, and each CPU's client workload.
struct MachineConfig {
  std::string Name;
  LayerPtr Layer;
  AsmProgramPtr Program;
  std::map<ThreadId, std::vector<CpuWorkItem>> Work;

  /// Instruction budget for one local slice (between query points); an
  /// exhausted budget is a divergence fault.
  std::uint64_t SliceBudget = 1u << 20;

  /// Memory model resolving shared visibility (DESIGN.md §13).  Null
  /// means ScMemory; a machine with a null or SC model is bit-identical
  /// to the pre-model machine.
  MemoryModelPtr Model;

  /// Fail-closed cap on the reads-from choices one step may offer under a
  /// weak model; exceeding it faults the machine with a raise-the-budget
  /// message rather than silently truncating the enumeration.
  unsigned MaxReadsFromPerStep = 64;
};

using MachineConfigPtr = std::shared_ptr<const MachineConfig>;

/// The executable machine state.
class MultiCoreMachine {
public:
  explicit MultiCoreMachine(MachineConfigPtr Cfg);

  /// False once any CPU faulted (race, trap, stuck primitive, divergence).
  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  /// True when every CPU has finished its workload.
  bool allIdle() const;

  /// CPUs currently parked at a shared primitive (the scheduler's menu).
  std::vector<ThreadId> schedulable() const;

  /// Executes CPU \p C's pending shared primitive and advances it to its
  /// next query point.  Returns false when the machine faulted.
  /// step(C) is step(C, 0): variant 0 is always the SC-coincident
  /// all-latest reads-from choice.
  bool step(ThreadId C);
  bool step(ThreadId C, unsigned Variant);

  /// Number of distinct reads-from choices CPU \p C's next step has under
  /// the configured memory model — the Explorer enumerates step(C, V) for
  /// V in [0, stepVariants(C)).  Always 1 under SC.  A value above
  /// MachineConfig::MaxReadsFromPerStep means the budget is exhausted;
  /// attempting any such step faults the machine fail-closed.
  unsigned stepVariants(ThreadId C) const;

  const Log &log() const { return GlobalLog; }

  /// The layer's fold over log(), advanced by every appended event: the
  /// shared state primitives and invariants read.
  const FoldValue &fold() const { return Fold; }

  /// Per-CPU return values of completed work items, in order.
  std::map<ThreadId, std::vector<std::int64_t>> returns() const;

  /// CPU \p C's local memory image.
  const std::vector<std::int64_t> &cpuMemory(ThreadId C) const;

  /// Name of the shared primitive CPU \p C is parked at ("" when none).
  /// Returns a reference into interned storage — no allocation per query.
  const std::string &pendingPrim(ThreadId C) const;

  /// Interned form of pendingPrim.
  KindId pendingPrimKind(ThreadId C) const;

  /// Total shared-primitive steps executed so far.
  std::uint64_t stepsTaken() const { return StepsTaken; }

private:
  enum class CpuPhase {
    Idle,     ///< workload finished
    AtShared, ///< parked at a shared primitive
    Faulted,
  };

  struct Cpu {
    Vm Machine;
    std::vector<std::int64_t> Globals;
    size_t NextWork = 0;
    bool Active = false; ///< a work item is running in the VM
    CpuPhase Phase = CpuPhase::Idle;
    /// The shared primitive the CPU is parked at, resolved once by
    /// advance(); read only while Phase is AtShared.  It points into the
    /// layer's node-based primitive map, which lives as long as Cfg.
    const Primitive *Parked = nullptr;
    std::vector<std::int64_t> Returns;

    Cpu(AsmProgramPtr P, std::vector<std::int64_t> G)
        : Machine(std::move(P)), Globals(std::move(G)) {}
  };

  /// Runs CPU \p Id's local code (instructions + private primitives) until
  /// the next shared call or workload completion.
  bool advance(Cpu &C, ThreadId Id);
  void fault(ThreadId Id, const std::string &Msg);

  /// Declared footprint of CPU \p C's next step — the pending shared
  /// primitive's footprint, whose locations and orders drive the weak
  /// model's reads-from enumeration.
  Footprint stepFootprint(ThreadId C) const;

  /// The configured model, defaulting to SC when the config has none.
  const MemoryModel &model() const;
  bool weakModel() const { return Cfg->Model && Cfg->Model->weak(); }

  MachineConfigPtr Cfg;
  std::map<ThreadId, Cpu> Cpus;
  Log GlobalLog;
  FoldValue Fold;
  /// Weak-memory state (view fronts, modification orders).  Stays empty
  /// under an SC model, so SC snapshots are bit-identical to the
  /// pre-model machine.
  RaState Ra;
  std::string Err;
  std::uint64_t StepsTaken = 0;
};

} // namespace ccal

#endif // CCAL_MACHINE_MULTICORE_H
