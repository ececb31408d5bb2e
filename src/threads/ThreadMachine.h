//===- threads/ThreadMachine.h - The multithreaded machine -----*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multithreaded machine of §5: several threads per CPU, each with its
/// own LAsm execution state, sharing the CPU-local memory (the §5.5 story:
/// private frame stacks, thread-shared globals).  Scheduling is
/// *non-preemptive* ("our machine model does not allow preemption", §5.2):
/// on each CPU only the current thread runs, and control transfers only at
/// scheduling events.
///
/// Which thread is current is itself shared state: the scheduler layer's
/// replay of the log, kept as the config's scheduler part of the machine's
/// fold and advanced with every appended event.  The high-level replay
/// interprets yield/sleep/wakeup events (§5.1), the low-level one concrete
/// cswitch events (§5.2's Lbtd[c]) — letting the multithreaded linking
/// theorem (Thm 5.1) compare the two machines over the same notion of
/// execution.
///
/// Two machine-internal bookkeeping events exist at every level:
/// `texit` (a thread finished its workload) and `resched` (an idle CPU
/// dispatched the lowest-id unfinished thread).  Relations erase them.
///
/// Each thread's program transitions are machine/Core.h's, shared with
/// the multicore machines; this machine adds the scheduler part, the idle
/// dispatcher, and the exit of a thread whose primitive ExitsThread.
/// Like the multicore machines it borrows its config, which must outlive
/// the machine and every copy of it.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_THREADS_THREADMACHINE_H
#define CCAL_THREADS_THREADMACHINE_H

#include "machine/Soundness.h"

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

namespace ccal {

/// Machine-internal event kinds.
inline const KindId ThreadExitEventKind{"texit"};
inline const KindId ReschedEventKind{"resched"};

/// The scheduler state both scheduler replays of threads/Sched.h fold the
/// log into; the low-level one keeps only Current.
struct SchedState {
  /// Current thread of each CPU; -1 when the CPU has nothing to run.
  std::map<ThreadId, std::int64_t> Current;
  std::map<ThreadId, std::vector<ThreadId>> Ready;     ///< cpu -> rdq
  std::map<std::int64_t, std::vector<ThreadId>> Sleep; ///< q -> sleepers

  /// Threads asleep on some sleep queue; the idle dispatcher must not
  /// resched them (only a wakeup can).
  std::set<ThreadId> Sleeping;

  bool operator==(const SchedState &) const = default;
};

/// One thread of the machine.
struct ThreadSpec {
  ThreadId Tid = 0;
  ThreadId Cpu = 0;
  std::vector<CpuWorkItem> Items;
};

/// Immutable description of a multithreaded run.
struct ThreadedConfig {
  std::string Name;
  LayerPtr Layer;
  AsmProgramPtr Program;
  std::vector<ThreadSpec> Threads;
  /// The scheduler part of the machine's fold (installHighSchedPrims or
  /// installLowSchedPrims returns it); the layer may declare it too.
  std::optional<FoldPart<SchedState>> Sched;
  /// Instruction budget for one local slice, as MachineConfig's.
  static constexpr std::uint64_t SliceBudget = 1u << 20;

  /// The fold the machine keeps: the layer's times the scheduler part.
  SharedFold fold() const;
};

using ThreadedConfigPtr = std::shared_ptr<const ThreadedConfig>;

/// Copyable multithreaded machine state; satisfies the generic Explorer's
/// machine concept.
class ThreadedMachine {
public:
  /// Borrows \p Cfg, which the caller keeps alive for the machine and
  /// every copy of it.
  explicit ThreadedMachine(const ThreadedConfigPtr &Cfg);
  /// A temporary config pointer would die before the machine: no binding.
  template <typename T>
  ThreadedMachine(const std::shared_ptr<T> &&) = delete;

  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }

  /// True when every thread has finished its workload.
  bool allIdle() const;

  /// Threads that are current on their CPU, parked at a shared primitive,
  /// and not Blocked, written into \p Out in CPU order, reusing its
  /// storage.
  void schedulable(std::vector<ThreadId> &Out) const;
  std::vector<ThreadId> schedulable() const {
    std::vector<ThreadId> Out;
    schedulable(Out);
    return Out;
  }

  /// Executes thread \p T's pending shared primitive, then settles every
  /// CPU (runs new current threads to their query points).
  bool step(ThreadId T);

  const Log &log() const { return GlobalLog; }

  /// The config's fold over log() (see MultiCoreMachine::fold).
  const FoldValue &fold() const { return Fold; }

  /// Per-thread return values of completed work items, written into
  /// \p Out in place (writeReturns).
  void returns(ReturnMap &Out) const;
  ReturnMap returns() const {
    ReturnMap Out;
    returns(Out);
    return Out;
  }

  const std::vector<std::int64_t> &cpuMemory(ThreadId Cpu) const;

private:
  struct Thr {
    Core Exec; ///< parked at a shared primitive while Exec.pending()
    ThreadId Cpu = 0;
    bool NeedsRun = true; ///< resumed (or fresh) but not yet run
    bool Exited = false;
  };

  /// Runs local code of every CPU's current thread until each is parked,
  /// exited, or its CPU is idle.
  bool settle();
  bool runThread(ThreadId Tid, Thr &T);
  void fault(ThreadId Tid, const std::string &Msg);
  /// Appends the machine's own bookkeeping \p Events (texit, resched) to
  /// the log and the fold.
  void emit(std::vector<Event> &&Events) {
    appendFolded(GlobalLog, Fold, std::move(Events));
  }

  const ThreadedConfig *Cfg;
  std::map<ThreadId, Thr> Threads;
  std::map<ThreadId, std::vector<std::int64_t>> CpuMem;
  Log GlobalLog;
  FoldValue Fold;
  std::string Err;
};

/// Options alias and explorer wrapper for the multithreaded machine.
using ThreadedExploreOptions = GenericExploreOptions<ThreadedMachine>;

ExploreResult exploreThreaded(ThreadedConfigPtr Cfg,
                              const ThreadedExploreOptions &Opts);

/// Contextual refinement between two multithreaded machines, with separate
/// event maps on each side (machine-internal events are erased by both):
/// the outcome-inclusion engine of machine/Soundness.h on two
/// ThreadedMachine roots.
ContextualRefinementReport
checkThreadedRefinement(ThreadedConfigPtr Impl, ThreadedConfigPtr Spec,
                        const EventMap &RImpl, const EventMap &RSpec,
                        const ThreadedExploreOptions &ImplOpts,
                        const ThreadedExploreOptions &SpecOpts);

} // namespace ccal

#endif // CCAL_THREADS_THREADMACHINE_H
