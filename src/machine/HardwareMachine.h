//===- machine/HardwareMachine.h - Instruction-level Mx86 ------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *hardware* multicore machine Mx86 (§3.1): "program transitions and
/// hardware scheduling ... are arbitrarily and nondeterministically
/// interleaved" — the scheduler may preempt between any two instructions,
/// not just at shared-primitive query points.
///
/// The multicore linking theorem (Thm 3.1) says all code verification over
/// the layer machine Lx86[D] (which interleaves only at query points)
/// propagates down to this machine: `[[P]]Mx86 <= [[P]]Lx86[D]`.
/// checkMulticoreLinking discharges it executably with the
/// outcome-inclusion engine (machine/Soundness.h): it explores *every*
/// instruction-granularity schedule and checks its outcomes against the
/// query-point machine's: local instructions only touch CPU-private
/// state, so their interleavings cannot be observed.
///
/// Both machines run the same program transitions (machine/Core.h); this
/// one differs only in its cycle: a single instruction, or the call the
/// CPU's VM paused at.  Like the query-point machine it borrows its
/// config, which must outlive the machine and every copy of it.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_HARDWAREMACHINE_H
#define CCAL_MACHINE_HARDWAREMACHINE_H

#include "machine/Soundness.h"

namespace ccal {

/// Instruction-granularity machine over the same MachineConfig as the
/// query-point MultiCoreMachine; satisfies the generic Explorer concept.
class HardwareMachine {
public:
  /// Borrows \p Cfg, which the caller keeps alive for the machine and
  /// every copy of it.
  explicit HardwareMachine(const MachineConfigPtr &Cfg);
  /// A temporary config pointer would die before the machine: no binding.
  template <typename T>
  HardwareMachine(const std::shared_ptr<T> &&) = delete;

  bool ok() const { return Err.empty(); }
  const std::string &error() const { return Err; }
  bool allIdle() const;

  /// Every CPU with work left and no Blocked pending primitive: hardware
  /// scheduling may hand any of them the next cycle.  Written into \p Out
  /// in id order, reusing its storage.
  void schedulable(std::vector<ThreadId> &Out) const;
  std::vector<ThreadId> schedulable() const {
    std::vector<ThreadId> Out;
    schedulable(Out);
    return Out;
  }

  /// Executes ONE unit on CPU \p C: a single instruction, or the pending
  /// primitive call (private: silent; shared: appends events).
  bool step(ThreadId C);

  const Log &log() const { return GlobalLog; }

  /// The layer's fold over log() (see MultiCoreMachine::fold).
  const FoldValue &fold() const { return Fold; }

  /// Per-CPU returns, written into \p Out in place (writeReturns).
  void returns(ReturnMap &Out) const;
  ReturnMap returns() const {
    ReturnMap Out;
    returns(Out);
    return Out;
  }

private:
  struct Cpu {
    Core Exec;
    std::vector<std::int64_t> Globals;
  };

  void fault(ThreadId Id, const std::string &Msg);

  const MachineConfig *Cfg;
  std::map<ThreadId, Cpu> Cpus;
  Log GlobalLog;
  FoldValue Fold;
  std::string Err;
};

/// Checks `[[P]]Mx86 <= [[P]]Lx86[D]` for the program/workload in \p Cfg:
/// every instruction-granularity outcome (the impl side) must be a
/// query-point outcome (the spec side), under the identity relation.
/// With \p CheckExactness, additionally requires the reverse inclusion
/// (the reduction loses nothing); that needs an exhaustive hardware sweep
/// with a fairness bound at least as long as the longest local stretch
/// between query points, so it is opt-in.  Certify the report with
/// makeMachineCertificate("MulticoreLink", ...).
ContextualRefinementReport checkMulticoreLinking(MachineConfigPtr Cfg,
                                                 unsigned FairnessBound = 4,
                                                 std::uint64_t MaxSchedules
                                                 = 1u << 22,
                                                 bool CheckExactness = false);

} // namespace ccal

#endif // CCAL_MACHINE_HARDWAREMACHINE_H
