//===- objects/Harness.h - Object layer refinement harness -----*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-object certification harness.  Given an object's underlay
/// interface, its ClightX module(s), its atomic overlay interface, the
/// commit-point relation R, and a client workload, the harness builds the
/// two machines of Thm 2.2 —
///
///   implementation: CompCertX(Client (+) Modules) over the underlay,
///   specification:  CompCertX(Client)             over the overlay
///
/// — explores every schedule of both, checks the contextual refinement,
/// and wraps the evidence into a certified layer usable by the calculus.
/// Extra invariants (mutual exclusion, guarantee conditions) are checked
/// on every implementation state.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_OBJECTS_HARNESS_H
#define CCAL_OBJECTS_HARNESS_H

#include "core/Calculus.h"
#include "lang/Ast.h"
#include "machine/Soundness.h"

namespace ccal {

/// Everything needed to certify one object layer on one workload.
struct ObjectHarness {
  std::string ObjectName;

  LayerPtr Underlay;
  std::vector<const ClightModule *> Modules; ///< the implementation M
  LayerPtr Overlay;
  EventMap R = EventMap::identity();

  /// Client program P; its calls to overlay methods must be extern
  /// declarations so they stay primitives on the spec machine.
  const ClightModule *Client = nullptr;

  /// Storage backing the raw module pointers above.  The certify*
  /// front-ends used to park their modules in function-local statics,
  /// which two concurrent callers (certd worker threads running the same
  /// job family) would reassign under each other; harness factories
  /// allocate here instead, so each harness owns its modules for exactly
  /// its own lifetime.
  std::vector<std::shared_ptr<ClightModule>> Owned;

  /// Per-CPU client workload (same on both machines).
  std::map<ThreadId, std::vector<CpuWorkItem>> Work;

  ExploreOptions ImplOpts;
  ExploreOptions SpecOpts;

  /// Memory model of the *implementation* machine.  The specification
  /// machine is always SC: an atomic overlay has no weak behaviors to
  /// model, so "RA impl refines SC spec" is exactly the Dalvandi & Dongol
  /// statement that every weak execution of the lock body is some atomic
  /// execution of its spec.
  MemoryModel ImplModel = MemoryModel::Sc;

  /// Builds the two machine configs (exposed for benches/tests).
  MachineConfigPtr implConfig() const;
  MachineConfigPtr specConfig() const;
};

/// Result of certifying an object layer.
struct HarnessOutcome {
  ContextualRefinementReport Report;
  CertifiedLayer Layer; ///< valid only when Report.Holds
  std::uint64_t ImplLoC = 0;
  std::uint64_t SpecPrimCount = 0;
};

/// Runs the harness; aborts only on configuration errors — a failed
/// refinement is reported, not fatal, so tests can assert on negatives.
HarnessOutcome runObjectHarness(const ObjectHarness &H);

/// The focused CPU set of a harness: the CPUs with workloads.
std::vector<ThreadId> focusOf(const ObjectHarness &H);

/// Counts non-empty source lines of a module's functions (a Table 2
/// "Source" analogue; uses the pretty-printed AST, so comments don't
/// count).
std::uint64_t moduleLoC(const ClightModule &M);

} // namespace ccal

#endif // CCAL_OBJECTS_HARNESS_H
