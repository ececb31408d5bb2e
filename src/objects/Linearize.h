//===- objects/Linearize.h - Linearizability search ------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A general linearizability checker (Herlihy & Wing; Filipovic et al.
/// showed it equivalent to contextual refinement, which §7 discusses).  It
/// searches for a sequential witness: an interleaving of the per-thread
/// operation histories, preserving each thread's program order, that a
/// sequential specification accepts with the observed return values.
///
/// The commit-point harness (objects/Harness.h) is the main verification
/// path; this checker is the fallback for objects whose relations carry no
/// explicit commit events, and a cross-check for those that do.  The audit
/// subsystem (src/audit/) drives it over histories recorded from the real
/// std::atomic objects, with the real-time precedence order derived from
/// invocation/response timestamps supplied as a PrecedenceMap.
///
/// The search is three-way, and callers must treat it that way: a result
/// with BudgetExhausted set means UNKNOWN — the search space was cut off
/// before either finding a witness or refuting all of them.  Reporting it
/// as "not linearizable" is a false alarm; reporting it as a pass is
/// unsound.  Use outcome() instead of reading Linearizable directly.
///
/// The sequential specification is a fold over a spec state, and the
/// depth-first search carries that state down with it: one state per
/// placed operation on an explicit stack, so placing an operation costs
/// one spec step (never a replay of the partial witness), and a window of
/// tens of thousands of operations needs no call stack to match.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_OBJECTS_LINEARIZE_H
#define CCAL_OBJECTS_LINEARIZE_H

#include "core/Log.h"

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace ccal {

/// One completed operation observed on some thread.
struct ObservedOp {
  std::string Method;
  std::vector<std::int64_t> Args;
  std::int64_t Ret = 0;
};

/// Sequential specification as a fold over a spec state: `Apply(S, Tid,
/// Op)` returns the value the spec produces for \p Op performed by \p Tid
/// in state S and advances S past it, or returns std::nullopt when the spec
/// refuses the operation there (S is then discarded).
template <typename State> struct SeqSpec {
  State Init;
  std::function<std::optional<std::int64_t>(State &, ThreadId,
                                            const ObservedOp &)>
      Apply;
};

/// Identifies one operation in a history map: (thread, index within that
/// thread's vector).
using OpRef = std::pair<ThreadId, std::size_t>;

/// Real-time precedence constraints on the search: before operation
/// `Key = (T, I)` may be linearized, thread T' must already have `K` of
/// its operations placed, for every (T', K) listed under Key.  Derived
/// from timestamps by the audit checker (response(A) < invoke(B) forces A
/// before B; per-thread response monotonicity means one covering count per
/// predecessor thread suffices).  Program order within each thread is
/// always enforced and need not be repeated here.
using PrecedenceMap = std::map<OpRef, std::vector<std::pair<ThreadId, std::size_t>>>;

/// The three-way answer every caller must respect.
enum class LinearizeOutcome {
  Linearizable,    ///< a sequential witness was found
  Refuted,         ///< the full search space was exhausted: no witness
  BudgetExhausted, ///< search cut off: UNKNOWN, neither pass nor refutation
};

/// Search outcome.
struct LinearizeResult {
  bool Linearizable = false;
  Log Witness; ///< accepted sequential order, when found
  std::uint64_t NodesExplored = 0;
  bool BudgetExhausted = false;

  /// The only safe way to consume the result: collapses the two flags into
  /// the three-way outcome so budget exhaustion can be conflated with
  /// neither a pass nor a refutation.
  LinearizeOutcome outcome() const {
    if (Linearizable)
      return LinearizeOutcome::Linearizable;
    return BudgetExhausted ? LinearizeOutcome::BudgetExhausted
                           : LinearizeOutcome::Refuted;
  }
};

/// Optional search-order hint: candidates with a smaller value are tried
/// first at each node.  Purely a heuristic — it changes which witness is
/// found first and how much backtracking happens, never the outcome.  The
/// audit checker passes invocation timestamps, which makes the search on
/// real lock traces near-greedy.
using PriorityMap = std::map<OpRef, std::uint64_t>;

namespace detail {
/// The state-free search: program order, real-time precedence, candidate
/// order and budget.  `TryPlace(Tid, Op)` asks the spec to accept \p Op
/// with its observed return value, pushing the resulting state when it
/// does; `Unplace()` pops the last pushed state.
LinearizeResult searchLinearization(
    const std::map<ThreadId, std::vector<ObservedOp>> &Histories,
    const std::function<bool(ThreadId, const ObservedOp &)> &TryPlace,
    const std::function<void()> &Unplace, std::uint64_t MaxNodes,
    const PrecedenceMap *Precedence, const PriorityMap *Priority);
} // namespace detail

/// Searches for a linearization of \p Histories against \p Spec.  When
/// \p Precedence is non-null the witness must additionally respect its
/// real-time order (the Herlihy–Wing side condition; without it this
/// checks sequential consistency of the history, not linearizability).
template <typename State>
LinearizeResult
findLinearization(const std::map<ThreadId, std::vector<ObservedOp>> &Histories,
                  const SeqSpec<State> &Spec, std::uint64_t MaxNodes = 1u << 22,
                  const PrecedenceMap *Precedence = nullptr,
                  const PriorityMap *Priority = nullptr) {
  std::vector<State> States(1, Spec.Init); // States[K]: after K placed ops
  return detail::searchLinearization(
      Histories,
      [&](ThreadId Tid, const ObservedOp &Op) {
        State Next = States.back();
        std::optional<std::int64_t> Ret = Spec.Apply(Next, Tid, Op);
        if (!Ret || *Ret != Op.Ret)
          return false; // refused here, or returns differently
        States.push_back(std::move(Next));
        return true;
      },
      [&] { States.pop_back(); }, MaxNodes, Precedence, Priority);
}

} // namespace ccal

#endif // CCAL_OBJECTS_LINEARIZE_H
