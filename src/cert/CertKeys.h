//===- cert/CertKeys.h - Key adders for programs & machines ----*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// CertKey adders for the bigger inputs: ClightX modules (full AST walk),
/// LAsm programs (instruction-exact), exploration options, and machine
/// configurations.  The machine-configuration adders are duck-typed
/// templates so this header needs no machine/threads includes — they
/// instantiate at the checker front-ends, where the concrete types exist,
/// keeping cert/ below machine/ in the library layering.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CERT_CERTKEYS_H
#define CCAL_CERT_CERTKEYS_H

#include "cert/CertKey.h"
#include "lang/Ast.h"
#include "lasm/Program.h"

namespace ccal {
namespace cert {

void keyAddExpr(Hasher &H, const Expr &E);
void keyAddStmt(Hasher &H, const Stmt &S);

/// Folds a ClightX module into \p H, structurally: globals with their
/// initializers, every function's signature and full AST.  Source lines
/// are deliberately excluded — reformatting a module must not invalidate
/// its certificates.
void keyAddModule(Hasher &H, const ClightModule &M);

/// Folds a compiled LAsm program into \p H, instruction-exact.
void keyAddProgram(Hasher &H, const AsmProgram &P);

/// Folds the semantic knobs of a GenericExploreOptions into \p H: the
/// budgets and regimes that shape the explored schedule space.  Threads,
/// Cancel/CancelReason and the callbacks are excluded — they change how
/// the space is walked or when a run stops, never which outcomes exist.
/// The invariant enters through its declared InvariantName; callers must
/// refuse to cache when an invariant is set without a name (the
/// `cacheableOptions` predicate below).
template <typename OptsT>
void keyAddExploreOptions(Hasher &H, const OptsT &O) {
  H.u64(O.FairnessBound)
      .u64(O.MaxSchedules)
      .u64(O.MaxSteps)
      // The two slots of the deleted partial-order reduction (its switch
      // and its per-participant step cap), hashed at the values every
      // key had, so keys written before the removal still match.
      .b(false)
      .u64(0)
      .b(static_cast<bool>(O.Invariant))
      .str(O.InvariantName)
      .b(O.CollectCorpus)
      .u64(O.MaxCorpus)
      .u64(O.MaxStoredOutcomes);
}

/// True when \p O carries no anonymous callable that the key cannot see.
/// OnOutcome is installed by the checker front-ends themselves and is a
/// function of already-keyed inputs, so only the invariant matters here.
template <typename OptsT> bool cacheableOptions(const OptsT &O) {
  return !O.Invariant || !O.InvariantName.empty();
}

/// Folds a multicore MachineConfig (machine/MultiCore.h shape: Name,
/// Layer, Program, Work, SliceBudget) into \p H.
template <typename CfgT> void keyAddMachineConfig(Hasher &H, const CfgT &C) {
  H.str(C.Name);
  keyAddLayer(H, *C.Layer);
  keyAddProgram(H, *C.Program);
  H.u64(C.Work.size());
  for (const auto &[Tid, Items] : C.Work) {
    H.u64(Tid).u64(Items.size());
    for (const auto &It : Items)
      H.str(It.Fn).i64s(It.Args);
  }
  H.u64(C.SliceBudget);
  // Memory-model tag: folded only under the release/acquire model, so SC
  // keys keep their pre-model hashes and SC/RA certificates can never
  // collide (an RA job presented an SC certificate sees a different file
  // stem entirely).  The enum is named through the config's type: this
  // header knows configs by shape only.
  if (C.Model == decltype(C.Model)::Ra)
    H.str("memmodel").str("ra").u64(C.MaxReadsFromPerStep);
}

/// Folds a ThreadedConfig (threads/ThreadMachine.h shape) into \p H.  The
/// scheduler part is opaque; it is represented by the config's Name,
/// which the linking front-end constructs alongside it.
template <typename CfgT> void keyAddThreadedConfig(Hasher &H, const CfgT &C) {
  H.str(C.Name);
  keyAddLayer(H, *C.Layer);
  keyAddProgram(H, *C.Program);
  H.u64(C.Threads.size());
  for (const auto &T : C.Threads) {
    H.u64(T.Tid).u64(T.Cpu).u64(T.Items.size());
    for (const auto &It : T.Items)
      H.str(It.Fn).i64s(It.Args);
  }
  H.u64(C.SliceBudget);
}

} // namespace cert
} // namespace ccal

#endif // CCAL_CERT_CERTKEYS_H
