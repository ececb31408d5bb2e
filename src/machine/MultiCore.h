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
/// Explorer enumerates those choices.  The program transitions are
/// machine/Core.h's, shared with the hardware and multithreaded machines;
/// this machine adds each CPU's phase and, under MemoryModel::Ra, the
/// view a shared call reads.
///
/// The whole machine state is copyable, enabling snapshot-based DFS.  A
/// machine borrows its config (and, through it, the layer, the program
/// and the workloads): the config must outlive the machine and every copy
/// of it, and in exchange a copy writes no reference count of the config
/// or the program, which parallel Explorer workers would all contend on.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_MULTICORE_H
#define CCAL_MACHINE_MULTICORE_H

#include "machine/Core.h"
#include "machine/MemoryModel.h"

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace ccal {

/// Immutable description of a machine run: the underlay interface, the
/// linked program every CPU executes, and each CPU's client workload.
struct MachineConfig {
  std::string Name;
  LayerPtr Layer;
  AsmProgramPtr Program;
  std::map<ThreadId, std::vector<CpuWorkItem>> Work;

  /// Instruction budget for one local slice (between query points); an
  /// exhausted budget is a divergence fault.
  static constexpr std::uint64_t SliceBudget = 1u << 20;

  /// Memory model resolving shared visibility (DESIGN.md §13).
  MemoryModel Model = MemoryModel::Sc;

  /// Fail-closed cap on the reads-from choices one step may offer under
  /// MemoryModel::Ra; exceeding it faults the machine with a
  /// raise-the-budget message rather than silently truncating the
  /// enumeration.
  unsigned MaxReadsFromPerStep = 64;
};

using MachineConfigPtr = std::shared_ptr<const MachineConfig>;

/// The executable machine state.
class MultiCoreMachine {
public:
  /// Borrows \p Cfg, which the caller keeps alive for the machine and
  /// every copy of it.
  explicit MultiCoreMachine(const MachineConfigPtr &Cfg);
  /// A temporary config pointer would die before the machine: no binding.
  template <typename T>
  MultiCoreMachine(const std::shared_ptr<T> &&) = delete;

  /// False once any CPU faulted (race, trap, stuck primitive, divergence).
  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  /// True when every CPU has finished its workload.
  bool allIdle() const;

  /// CPUs currently parked at a shared primitive (the scheduler's menu),
  /// written into \p Out in id order.  Out's storage is reused, so the
  /// Explorer's frames fill their menus without allocating.
  void schedulable(std::vector<ThreadId> &Out) const;
  std::vector<ThreadId> schedulable() const {
    std::vector<ThreadId> Out;
    schedulable(Out);
    return Out;
  }

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

  /// Per-CPU return values of completed work items, in order, written
  /// into \p Out in place (writeReturns).
  void returns(ReturnMap &Out) const;
  ReturnMap returns() const {
    ReturnMap Out;
    returns(Out);
    return Out;
  }

  /// Name of the shared primitive CPU \p C is parked at ("" when none).
  /// The reference lives as long as the config: no allocation per query.
  const std::string &pendingPrim(ThreadId C) const;

private:
  struct Cpu {
    ThreadId Id;
    Core Exec;
    std::vector<std::int64_t> Globals;
    /// Where the CPU's last local run stopped; step() needs AtShared.
    Core::Stop Phase = Core::Stop::Idle;
  };

  /// The CPU with id \p Id; null when there is none.
  const Cpu *cpu(ThreadId Id) const;
  Cpu *cpu(ThreadId Id) {
    return const_cast<Cpu *>(static_cast<const MultiCoreMachine *>(this)
                                 ->cpu(Id));
  }

  /// Runs CPU \p C's local code (instructions + private primitives) until
  /// the next shared call or workload completion.
  bool advance(Cpu &C);
  void fault(Cpu &C, const std::string &Msg);

  const MachineConfig *Cfg;
  /// Ordered by id.  A vector, not a map: copy-assigning the machine into
  /// a snapshot slot then assigns each CPU in place, so the VMs, local
  /// memories and returns keep the storage the slot already held.
  std::vector<Cpu> Cpus;
  Log GlobalLog;
  FoldValue Fold;
  /// Release/acquire state (view fronts, modification orders), engaged
  /// exactly under MemoryModel::Ra, so an SC snapshot copies none of it.
  std::optional<RaState> Ra;
  std::string Err;
};

} // namespace ccal

#endif // CCAL_MACHINE_MULTICORE_H
