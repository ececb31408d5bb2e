//===- machine/CpuLocal.h - CPU-local layer interfaces ---------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builders for CPU-local layer interfaces `Lx86[c]` (§3.2) and for the
/// common log-replay primitive shapes the paper's bottom interfaces use:
/// atomic x86 instructions whose return values are reconstructed from the
/// log by replay functions ("this seemingly inefficient way of treating
/// shared atomic objects is actually great for compositional
/// specification", §7).  The counter replays need no declaration: every
/// fold counts events per kind, so these primitives read the count from
/// PrimCall::Fold in O(1).
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_CPULOCAL_H
#define CCAL_MACHINE_CPULOCAL_H

#include "core/LayerInterface.h"

#include <memory>

namespace ccal {

/// Fetch-and-increment over a logical counter: appends `c.Kind(Args)` and
/// returns the number of earlier `Kind` events (so the counter starts at 0
/// and each call fetches the pre-increment value).  This is the paper's
/// `FAI_t`.
PrimSemantics makeFetchIncPrim(std::string Kind);

/// Reads a logical counter: appends `c.Kind(Args)` and returns the number
/// of `CountedKind` events so far.  This is the paper's `get_n`, reading
/// the "now serving" number maintained by `inc_n` events.
PrimSemantics makeReadCounterPrim(std::string Kind, std::string CountedKind);

/// An event-only primitive: appends `c.Kind(Args)` and returns 0 (the
/// paper's `hold`, `inc_n`, `f`, `g`, ...).
PrimSemantics makeEventPrim(std::string Kind);

/// A private no-op primitive returning a constant (useful as a ghost
/// "logical primitive" — the calls §6 measures the cost of).
PrimSemantics makeConstPrim(std::int64_t Value);

/// A private primitive returning the calling CPU/thread id (the paper's
/// `get_tid` / CurID).
PrimSemantics makeSelfIdPrim();

/// Creates an empty mutable CPU-local interface to be populated by the
/// object layers.
std::shared_ptr<LayerInterface> makeInterface(std::string Name);

} // namespace ccal

#endif // CCAL_MACHINE_CPULOCAL_H
