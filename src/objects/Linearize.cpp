//===- objects/Linearize.cpp - Linearizability search ------------------------===//

#include "objects/Linearize.h"

#include <algorithm>

using namespace ccal;

namespace {

class Search {
public:
  Search(const std::map<ThreadId, std::vector<ObservedOp>> &Histories,
         std::uint64_t MaxNodes, const PrecedenceMap *Precedence,
         const PriorityMap *Priority, LinearizeResult &Res)
      : Histories(Histories), MaxNodes(MaxNodes), Precedence(Precedence),
        Priority(Priority), Res(Res) {
    for (const auto &[Tid, Ops] : Histories) {
      Pos[Tid] = 0;
      TotalOps += Ops.size();
    }
  }

  /// Depth-first search over placements, one Frame per search node on an
  /// explicit stack (a window may hold tens of thousands of operations).
  /// Each node tries its candidates in candidateOrder(); a node is counted
  /// when entered, and the first node past the budget ends the search.
  /// Audit reports pin the resulting node counts.
  void run(const std::function<bool(ThreadId, const ObservedOp &)> &TryPlace,
           const std::function<void()> &Unplace) {
    std::vector<Frame> Stack;
    if (!enter(Stack))
      return;
    while (true) {
      if (Path.size() == TotalOps) {
        Res.Linearizable = true;
        buildWitness();
        return;
      }
      Frame &F = Stack.back();
      if (F.Next == F.Order.size()) {
        // Every candidate failed below this node: backtrack.
        Stack.pop_back();
        if (Stack.empty())
          return;
        --Pos[Path.back()];
        Path.pop_back();
        Unplace();
        continue;
      }
      ThreadId Tid = F.Order[F.Next++];
      const std::vector<ObservedOp> &Ops = Histories.find(Tid)->second;
      size_t &P = Pos[Tid];
      if (P >= Ops.size() || !precedenceSatisfied(Tid, P) ||
          !TryPlace(Tid, Ops[P]))
        continue; // done, a real-time predecessor is pending, or refused
      ++P;
      Path.push_back(Tid);
      if (!enter(Stack))
        return;
    }
  }

private:
  struct Frame {
    std::vector<ThreadId> Order; ///< candidates, in the order tried
    size_t Next = 0;             ///< index of the next candidate to try
  };

  /// Counts a new search node and pushes its frame; false once the node
  /// budget is exceeded.
  bool enter(std::vector<Frame> &Stack) {
    if (++Res.NodesExplored > MaxNodes) {
      Res.BudgetExhausted = true;
      return false;
    }
    Stack.push_back({candidateOrder(), 0});
    return true;
  }

  /// The witness log of the completed placement Path.
  void buildWitness() {
    std::map<ThreadId, size_t> Next;
    for (ThreadId Tid : Path) {
      const ObservedOp &Op = Histories.find(Tid)->second[Next[Tid]++];
      Res.Witness.push_back(Event(Tid, KindId(Op.Method), Op.Args));
    }
  }

  /// Thread ids in the order candidates are tried at this node: map order
  /// (deterministic, matches the pre-hint behavior) unless a PriorityMap
  /// ranks each thread's next pending operation.
  std::vector<ThreadId> candidateOrder() const {
    std::vector<ThreadId> Tids;
    Tids.reserve(Histories.size());
    for (const auto &[Tid, Ops] : Histories) {
      (void)Ops;
      Tids.push_back(Tid);
    }
    if (Priority) {
      auto Rank = [this](ThreadId Tid) -> std::uint64_t {
        auto H = Histories.find(Tid);
        size_t P = Pos.find(Tid)->second;
        if (P >= H->second.size())
          return ~std::uint64_t(0);
        auto It = Priority->find(OpRef(Tid, P));
        return It == Priority->end() ? ~std::uint64_t(0) : It->second;
      };
      std::stable_sort(Tids.begin(), Tids.end(),
                       [&Rank](ThreadId A, ThreadId B) {
                         return Rank(A) < Rank(B);
                       });
    }
    return Tids;
  }

  /// True when every operation the real-time order places before
  /// (\p Tid, \p Idx) has already been linearized.
  bool precedenceSatisfied(ThreadId Tid, std::size_t Idx) const {
    if (!Precedence)
      return true;
    auto It = Precedence->find(OpRef(Tid, Idx));
    if (It == Precedence->end())
      return true;
    for (const auto &[PredTid, Count] : It->second) {
      auto P = Pos.find(PredTid);
      if (P == Pos.end() || P->second < Count)
        return false;
    }
    return true;
  }

  const std::map<ThreadId, std::vector<ObservedOp>> &Histories;
  std::uint64_t MaxNodes;
  const PrecedenceMap *Precedence;
  const PriorityMap *Priority;
  LinearizeResult &Res;
  std::map<ThreadId, size_t> Pos; ///< placed ops per thread
  std::vector<ThreadId> Path;     ///< placed ops, as their threads, in order
  size_t TotalOps = 0;
};

} // namespace

LinearizeResult ccal::detail::searchLinearization(
    const std::map<ThreadId, std::vector<ObservedOp>> &Histories,
    const std::function<bool(ThreadId, const ObservedOp &)> &TryPlace,
    const std::function<void()> &Unplace, std::uint64_t MaxNodes,
    const PrecedenceMap *Precedence, const PriorityMap *Priority) {
  LinearizeResult Res;
  Search(Histories, MaxNodes, Precedence, Priority, Res).run(TryPlace,
                                                             Unplace);
  return Res;
}
