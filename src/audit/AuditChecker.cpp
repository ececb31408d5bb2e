//===- audit/AuditChecker.cpp - Offline trace linearizability audit ----------===//

#include "audit/AuditChecker.h"

#include "objects/Linearize.h"

#include <algorithm>
#include <map>
#include <set>

using namespace ccal;
using namespace ccal::audit;

const char *audit::outcomeName(AuditOutcome O) {
  switch (O) {
  case AuditOutcome::Pass:
    return "PASS";
  case AuditOutcome::Fail:
    return "FAIL";
  case AuditOutcome::Unresolved:
    return "UNRESOLVED";
  }
  return "UNRESOLVED";
}

namespace {

//===----------------------------------------------------------------------===//
// Sequential spec engines
//===----------------------------------------------------------------------===//

/// One state shape serves all three registered specs; each spec reads the
/// fields it cares about.
struct SpecState {
  ThreadId Holder = 0;     ///< lock holder, 0 = free
  std::int64_t Acqs = 0;   ///< completed acquires (the next FAI ticket)
  std::int64_t Rels = 0;   ///< completed releases
  std::vector<std::int64_t> Items; ///< queue contents, front at index 0
};

enum class SpecKind { Ticket, Lock, Queue };

/// The one transition function of the registered specs: the value \p Op
/// performed by \p Tid returns in state S, advancing S past it, or nullopt
/// when the spec refuses the operation there.  The search and the
/// committed-state fold both run it, so they agree by construction.
std::optional<std::int64_t> specApply(SpecKind K, SpecState &S, ThreadId Tid,
                                      const ObservedOp &Op) {
  if (Op.Method == "acq") {
    if (K == SpecKind::Queue || S.Holder != 0)
      return std::nullopt;
    S.Holder = Tid;
    std::int64_t Ticket = S.Acqs++;
    return K == SpecKind::Ticket ? Ticket : 0;
  }
  if (Op.Method == "rel") {
    if (K == SpecKind::Queue || S.Holder != Tid)
      return std::nullopt;
    S.Holder = 0;
    std::int64_t Served = S.Rels++;
    return K == SpecKind::Ticket ? Served : 0;
  }
  if (K == SpecKind::Queue && Op.Method == "enQ") {
    if (Op.Args.size() != 1)
      return std::nullopt;
    S.Items.push_back(Op.Args[0]);
    return 0;
  }
  if (K == SpecKind::Queue && Op.Method == "deQ") {
    if (S.Items.empty())
      return -1;
    std::int64_t Front = S.Items.front();
    S.Items.erase(S.Items.begin());
    return Front;
  }
  return std::nullopt;
}

/// Spec state for one object, carried across windows: the committed base
/// state is the initial state of the spec every window's search folds
/// from, so moving to the next window is one assignment.
class SpecEngine {
public:
  explicit SpecEngine(SpecKind K)
      : Spec{SpecState{},
             [K](SpecState &S, ThreadId Tid, const ObservedOp &Op) {
               return specApply(K, S, Tid, Op);
             }} {}

  const SeqSpec<SpecState> &spec() const { return Spec; }
  const SpecState &base() const { return Spec.Init; }

  /// The spec state a window witness leaves behind, without committing it
  /// (nullopt only on internal inconsistency: a witness event the spec
  /// refuses — "cannot happen" by construction).
  std::optional<SpecState> stateAfter(const Log &Witness) const {
    SpecState S = Spec.Init;
    for (const Event &E : Witness)
      if (!Spec.Apply(S, E.Tid, ObservedOp{E.kind(), E.Args, 0}))
        return std::nullopt;
    return S;
  }

  /// Installs \p S as the base state for the next window.  Callers must
  /// only commit states proven witness-independent (see
  /// queueStateAmbiguous): committing one witness's state where another
  /// witness would leave a different one turns the checker's later FAILs
  /// into false alarms.
  void commitState(SpecState S) { Spec.Init = std::move(S); }

private:
  SeqSpec<SpecState> Spec;
};

bool specKindOf(const std::string &Name, SpecKind &Out) {
  if (Name == "ticket") {
    Out = SpecKind::Ticket;
    return true;
  }
  if (Name == "lock") {
    Out = SpecKind::Lock;
    return true;
  }
  if (Name == "queue") {
    Out = SpecKind::Queue;
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Window machinery
//===----------------------------------------------------------------------===//

/// One window's operations, still in invocation-time order.
using Window = std::vector<const OpRecord *>;

/// Partitions \p Ops (already sorted by InvokeNs) at quiescent cuts: a cut
/// falls before index I exactly when every earlier operation responded
/// strictly before Ops[I] invoked — i.e. the cut instant is spanned by no
/// operation, so the real-time order already places the two sides in
/// sequence.  Ties (equal nanoseconds) count as concurrent and stay in one
/// window: the cut must never manufacture precedence the clock cannot
/// prove.
std::vector<Window> partitionWindows(const std::vector<const OpRecord *> &Ops) {
  std::vector<Window> Windows;
  Window Cur;
  std::uint64_t MaxResp = 0;
  for (const OpRecord *R : Ops) {
    if (!Cur.empty() && MaxResp < R->InvokeNs) {
      Windows.push_back(std::move(Cur));
      Cur.clear();
    }
    Cur.push_back(R);
    MaxResp = std::max(MaxResp, R->ResponseNs);
  }
  if (!Cur.empty())
    Windows.push_back(std::move(Cur));
  return Windows;
}

/// Whether the queue state \p After left by one witness of window \p W is
/// the state EVERY witness leaves — the side condition for committing it
/// and auditing the next window independently.
///
/// Counters and lock holders are determined by the window's operation
/// multiset alone, but a FIFO queue's surviving-item ORDER is chosen by
/// the witness: two concurrent enqueues whose values are both still in the
/// queue at the cut can linearize either way, and a later window's dequeue
/// observes the choice.  Dequeued values are pinned (their deQ returns fix
/// the order), and base-state leftovers form a fixed prefix, so ambiguity
/// needs a pair of SURVIVING same-window enqueues that real time leaves
/// unordered.  Checking consecutive pairs of the invocation-sorted
/// survivors suffices: resp(i) < inv(i+1) for all i chains into a total
/// order.  Conservative on duplicate values (all enqueues of a surviving
/// value count as survivors) — over-merging costs search effort, never
/// soundness.
bool queueStateAmbiguous(const Window &W, const SpecState &Base,
                         const SpecState &After) {
  if (After.Items.empty())
    return false;
  std::multiset<std::int64_t> Surviving(After.Items.begin(), After.Items.end());
  for (std::int64_t V : Base.Items) {
    auto It = Surviving.find(V);
    if (It != Surviving.end())
      Surviving.erase(It);
  }
  std::vector<const OpRecord *> Enqs;
  for (const OpRecord *R : W)
    if (R->M == Method::Enq && Surviving.count(R->Arg))
      Enqs.push_back(R);
  std::sort(Enqs.begin(), Enqs.end(),
            [](const OpRecord *A, const OpRecord *B) {
              return A->InvokeNs < B->InvokeNs;
            });
  for (std::size_t I = 1; I < Enqs.size(); ++I)
    if (Enqs[I - 1]->Tid != Enqs[I]->Tid &&
        Enqs[I - 1]->ResponseNs >= Enqs[I]->InvokeNs)
      return true;
  return false;
}

ObservedOp observedOf(const OpRecord &R) {
  ObservedOp Op;
  Op.Method = methodName(R.M);
  if (R.HasArg)
    Op.Args.push_back(R.Arg);
  Op.Ret = R.Ret;
  return Op;
}

/// The per-window inputs to findLinearization.
struct WindowProblem {
  std::map<ThreadId, std::vector<ObservedOp>> Histories;
  PrecedenceMap Precedence;
  PriorityMap Priority;
};

WindowProblem buildProblem(const Window &W) {
  WindowProblem P;
  // Per-thread op lists plus parallel invoke/response vectors, preserving
  // the window's invocation-time order within each thread (which is also
  // each thread's program order: responses precede the thread's next
  // invocation on the one monotonic clock).
  std::map<ThreadId, std::vector<std::uint64_t>> Invs, Resps;
  for (const OpRecord *R : W) {
    ThreadId Tid = static_cast<ThreadId>(R->Tid);
    P.Histories[Tid].push_back(observedOf(*R));
    Invs[Tid].push_back(R->InvokeNs);
    Resps[Tid].push_back(R->ResponseNs);
    P.Priority[OpRef(Tid, Invs[Tid].size() - 1)] = R->InvokeNs;
  }
  // Real-time precedence: before (T, I) runs, thread T' must have placed
  // every op whose response is strictly before (T, I)'s invocation.
  // Per-thread response vectors are non-decreasing, so one covering
  // (T', count) entry per predecessor thread captures all such edges.
  for (const auto &[Tid, Inv] : Invs) {
    for (std::size_t I = 0; I != Inv.size(); ++I) {
      std::vector<std::pair<ThreadId, std::size_t>> Preds;
      for (const auto &[OTid, OResp] : Resps) {
        if (OTid == Tid)
          continue; // program order is always enforced by the search
        std::size_t Count = static_cast<std::size_t>(
            std::lower_bound(OResp.begin(), OResp.end(), Inv[I]) -
            OResp.begin());
        if (Count)
          Preds.emplace_back(OTid, Count);
      }
      if (!Preds.empty())
        P.Precedence[OpRef(Tid, I)] = std::move(Preds);
    }
  }
  return P;
}

std::string objWindowTag(std::uint64_t Obj, std::uint64_t Win) {
  return "obj " + std::to_string(Obj) + " window " + std::to_string(Win);
}

} // namespace

std::vector<std::string> audit::specNames() {
  return {"ticket", "lock", "queue"};
}

bool audit::hasSpec(const std::string &Name) {
  SpecKind K;
  return specKindOf(Name, K);
}

AuditReport audit::auditTrace(const Trace &T, const std::string &Spec,
                              const AuditOptions &Opts) {
  AuditReport Rep;
  SpecKind Kind;
  if (!specKindOf(Spec, Kind)) {
    Rep.Detail = "unknown spec '" + Spec + "'";
    return Rep;
  }
  // Dropped records are a soundness event: the gap could hide exactly the
  // violation being hunted, so nothing recorded alongside them certifies.
  if (T.Dropped != 0) {
    Rep.Detail = std::to_string(T.Dropped) +
                 " record(s) dropped during capture; history is incomplete";
    return Rep;
  }

  // Group by object identity, preserving trace order (which preserves each
  // thread's program order within each object).
  std::map<std::uint64_t, std::vector<const OpRecord *>> ByObj;
  for (const OpRecord &R : T.Records)
    ByObj[R.Obj].push_back(&R);

  bool SawUnresolved = false;
  std::string UnresolvedDetail;
  for (auto &[Obj, Ops] : ByObj) {
    ++Rep.Objects;
    // Per-(object, thread) sanity: one thread's operations cannot overlap
    // each other — the next invocation follows the previous response on
    // one monotonic clock.  A violation means the trace (or the clock) is
    // corrupt — fail closed.  Checked on invocation-sorted intervals so
    // the verdict is independent of record order within the file.
    {
      std::map<std::uint64_t, std::vector<std::pair<std::uint64_t, std::uint64_t>>>
          Intervals;
      for (const OpRecord *R : Ops)
        Intervals[R->Tid].emplace_back(R->InvokeNs, R->ResponseNs);
      bool Bad = false;
      for (auto &[Tid, Iv] : Intervals) {
        (void)Tid;
        std::sort(Iv.begin(), Iv.end());
        for (std::size_t I = 1; I < Iv.size() && !Bad; ++I)
          Bad = Iv[I].first < Iv[I - 1].second;
        if (Bad)
          break;
      }
      if (Bad) {
        SawUnresolved = true;
        if (UnresolvedDetail.empty())
          UnresolvedDetail = "obj " + std::to_string(Obj) +
                             ": thread program order violates timestamps "
                             "(corrupt trace)";
        continue;
      }
    }

    std::stable_sort(Ops.begin(), Ops.end(),
                     [](const OpRecord *A, const OpRecord *B) {
                       return A->InvokeNs < B->InvokeNs;
                     });
    std::vector<Window> Windows = partitionWindows(Ops);

    SpecEngine Engine(Kind);
    // `Cur` accumulates quiescent windows that could not yet be committed:
    // a window whose post-state depends on which witness was found (see
    // queueStateAmbiguous) is merged with its successor instead of
    // committed, deferring the order choice until some dequeue (or the end
    // of the trace) pins it.
    Window Cur;
    std::uint64_t ObjWin = 0; // committed windows of THIS object
    for (std::size_t WI = 0; WI != Windows.size(); ++WI) {
      Cur.insert(Cur.end(), Windows[WI].begin(), Windows[WI].end());
      Rep.MaxWindowSeen =
          std::max<std::uint64_t>(Rep.MaxWindowSeen, Cur.size());
      if (Cur.size() > Opts.MaxWindowOps) {
        SawUnresolved = true;
        if (UnresolvedDetail.empty())
          UnresolvedDetail = objWindowTag(Obj, ObjWin) + ": " +
                             std::to_string(Cur.size()) +
                             " ops exceed the window cap (" +
                             std::to_string(Opts.MaxWindowOps) + ")";
        break; // downstream spec state is unknown: stop this object
      }
      WindowProblem P = buildProblem(Cur);
      LinearizeResult LR =
          findLinearization(P.Histories, Engine.spec(), Opts.MaxNodesPerWindow,
                            &P.Precedence, &P.Priority);
      Rep.NodesExplored += LR.NodesExplored;
      bool Stop = false;
      switch (LR.outcome()) {
      case LinearizeOutcome::Linearizable: {
        std::optional<SpecState> After = Engine.stateAfter(LR.Witness);
        if (!After) {
          SawUnresolved = true;
          if (UnresolvedDetail.empty())
            UnresolvedDetail = objWindowTag(Obj, ObjWin) +
                               ": internal error committing witness";
          Stop = true;
          break;
        }
        if (WI + 1 != Windows.size() && Kind == SpecKind::Queue &&
            queueStateAmbiguous(Cur, Engine.base(), *After))
          break; // keep Cur: the next window joins it
        Engine.commitState(std::move(*After));
        ++Rep.Windows;
        ++ObjWin;
        Rep.OpsAudited += Cur.size();
        Cur.clear();
        break;
      }
      case LinearizeOutcome::Refuted:
        // A concrete violation: no interleaving of this window satisfies
        // the spec under the timestamp-proven real-time order (and the
        // base state was only ever committed when witness-independent, so
        // the refutation cannot be an artifact of an earlier choice).
        // FAIL dominates every other verdict, so we can stop here.
        Rep.Outcome = AuditOutcome::Fail;
        Rep.Detail = objWindowTag(Obj, ObjWin) + ": no linearization of " +
                     std::to_string(Cur.size()) + " ops (explored " +
                     std::to_string(LR.NodesExplored) + " nodes)";
        Rep.WitnessObj = Obj;
        Rep.WitnessWindow = ObjWin;
        for (const OpRecord *R : Cur)
          Rep.WitnessOps.push_back(*R);
        return Rep;
      case LinearizeOutcome::BudgetExhausted:
        SawUnresolved = true;
        if (UnresolvedDetail.empty())
          UnresolvedDetail = objWindowTag(Obj, ObjWin) + ": search budget (" +
                             std::to_string(Opts.MaxNodesPerWindow) +
                             " nodes) exhausted";
        Stop = true;
        break;
      }
      if (Stop)
        break; // UNRESOLVED window: downstream spec state is unknown
    }
  }

  if (SawUnresolved) {
    Rep.Outcome = AuditOutcome::Unresolved;
    Rep.Detail = UnresolvedDetail;
  } else {
    Rep.Outcome = AuditOutcome::Pass;
  }
  return Rep;
}
