//===- machine/Explorer.h - Schedule enumeration ---------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Explorer enumerates *all* schedules of a machine up to a fairness
/// bound, by depth-first search over machine snapshots.  This is the
/// executable counterpart of the paper's universal quantification over
/// environment contexts / schedulers: a property checked by the Explorer
/// holds for every interleaving the bound admits.
///
/// The fairness bound m caps how many consecutive steps one participant
/// may take while another is ready: no participant takes more than m
/// steps in a row while some other participant could step.  It is the
/// finite form of the paper's fair hardware scheduler assumption (§3.2),
/// without which a spinning CPU would generate infinitely many schedules.
///
/// The DFS is generic over the machine: the query-point multicore machine
/// and the instruction-level hardware machine (§3) and the multithreaded
/// machine (§5) all instantiate it.  A machine must be copyable and
/// movable and provide ok()/error(), allIdle(), schedulable(Out),
/// step(), log(), and returns(Out); the two Out forms write into the
/// caller's storage, which the search reuses from state to state.  Every
/// machine borrows its config, so the config must outlive the root, every
/// snapshot the search copies from it, and the search itself.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_EXPLORER_H
#define CCAL_MACHINE_EXPLORER_H

#include "machine/MultiCore.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace ccal {

/// One terminal execution.
struct Outcome {
  Log FinalLog;
  ReturnMap Returns;
};

/// Exploration knobs, parameterized by the machine type so invariants can
/// inspect the concrete machine.
template <typename MachineT> struct GenericExploreOptions {
  /// Max consecutive steps of one participant while another is
  /// schedulable: a schedule in which one participant takes more than
  /// this many steps in a row while another could step is never taken.
  unsigned FairnessBound = 6;

  /// Budgets; exceeding MaxSteps along a path is reported as divergence.
  /// Several workers add their schedules to the shared count 32 at a
  /// time, so they may explore a few past MaxSchedules; a run that did is
  /// truncated all the same.  One worker never passes it.
  std::uint64_t MaxSchedules = 1u << 22;
  std::uint64_t MaxSteps = 4096;

  /// External cancellation: when set, every worker polls this flag at
  /// node expansion (one relaxed load) and a raised flag truncates the
  /// search through the SAME fail-closed path as an exhausted budget —
  /// Complete=false with CancelReason in Truncation — so checkers refuse
  /// Holds and the certificate store never persists the partial evidence.
  /// This is the certd daemon's per-job timeout hook; excluded from
  /// certificate keys (keyAddExploreOptions) because cancellation changes
  /// when a run stops, never which outcomes exist.
  std::shared_ptr<std::atomic<bool>> Cancel;

  /// Truncation text recorded when Cancel fires (name WHO cancelled —
  /// "job timeout (2000 ms)" — so the diagnostic a client sees is
  /// actionable).
  std::string CancelReason = "cancelled by caller";

  /// The partial-order reduction is gone; this constant remains because
  /// certbench/Layers.cpp, its only reader, still tests it.
  static constexpr bool Por = false;

  /// Invariant checked after every machine step; a non-empty return is a
  /// violation (used for mutual exclusion, guarantee conditions, ...).
  std::function<std::string(const MachineT &)> Invariant;

  /// Stable name identifying Invariant's semantics in certificate-store
  /// keys ("ticket.mutex", ...).  The function itself is opaque, so the
  /// store can only key what is named: a check whose Invariant is set
  /// without a name is UNCACHEABLE and bypasses the store (fail closed).
  /// Renaming the invariant — or keeping the name while changing what it
  /// checks — is a semantic change; the latter requires clearing the
  /// cache or bumping the checker version.
  std::string InvariantName;

  /// When true, terminal logs (and sampled intermediate logs) are retained
  /// in ExploreResult::Corpus for compat implication checking, capped at
  /// MaxCorpus entries.
  bool CollectCorpus = false;
  /// The corpus cap.  Certificate keys hash it (keyAddExploreOptions), so
  /// changing it invalidates every stored certificate.
  static constexpr size_t MaxCorpus = 2048;

  /// When set, the outcome of every terminal schedule is passed to this
  /// callback *instead of* being stored in ExploreResult::Outcomes —
  /// essential for large schedule spaces.  It fires once per terminal
  /// schedule, so an outcome several schedules reach is passed once for
  /// each, and calls are serialized.  Returning a non-empty string rejects
  /// the outcome and aborts the exploration with that violation.
  /// ExploreResult::DistinctOutcomes/AcceptedOutcomes count what it saw.
  /// When unset, exploreGeneric installs a callback of its own that
  /// stores the distinct outcomes (see MaxStoredOutcomes).
  ///
  /// With more than one worker, each worker hands its outcomes over in
  /// batches of 32, one lock acquisition per batch, so a rejection stops
  /// the search only once its batch is handed over: the rejecting worker
  /// may reach up to 31 more terminal schedules first, and the other
  /// workers keep exploring meanwhile.  Every schedule reached is still
  /// passed to the callback and counted, and any rejection still fails
  /// the run.  With one worker each outcome is handed over as it is
  /// reached.
  std::function<std::string(const Outcome &)> OnOutcome;

  /// Cap on stored outcomes when OnOutcome is not set; an outcome past it
  /// is not stored, and the run is truncated (fails closed).
  size_t MaxStoredOutcomes = 1u << 18;

  /// Worker threads sharing the search frontier.  1 (the default) runs the
  /// exact sequential DFS and produces bit-identical results to the
  /// single-threaded Explorer; 0 means one worker per hardware thread.
  /// With more than one worker, Invariant must be safe to call
  /// concurrently on distinct machine snapshots (invariants that only
  /// read the snapshot's fold or log are); OnOutcome calls are serialized
  /// by the Explorer itself, so a callback needs no locking of its own,
  /// and arrive in per-worker batches (see OnOutcome).
  unsigned Threads = 1;
};

/// Aggregate result over all schedules.
struct ExploreResult {
  bool Ok = true;

  /// False when a budget (MaxSchedules, MaxStoredOutcomes) truncated the
  /// search; obligations then cover only the explored prefix, and no
  /// checker may report Holds from such a result.
  bool Complete = true;

  /// Which budget truncated the search ("" when Complete).
  std::string Truncation;

  std::string Violation; ///< first violation with its log

  /// Runs without OnOutcome: the distinct outcomes in the order they were
  /// handed over (search order with one worker), up to MaxStoredOutcomes.
  /// Empty when the caller set OnOutcome.
  std::vector<Outcome> Outcomes;

  /// The distinct outcomes passed to the callback (the caller's or the
  /// storing one) and the distinct ones it accepted, counted by 128-bit
  /// fingerprint (OutcomeSet::fingerprint) at the join; a run stopped
  /// early counts every outcome reached, including those a worker still
  /// held in its batch when the stop came.  Every outcome is matched
  /// before it is counted, so a collision can only under-count.
  std::uint64_t DistinctOutcomes = 0;
  std::uint64_t AcceptedOutcomes = 0;

  std::uint64_t SchedulesExplored = 0;
  std::uint64_t StatesExplored = 0;
  std::uint64_t InvariantChecks = 0;
  std::uint64_t MaxLogLen = 0;

  /// Weak-memory enumeration telemetry: a branch point is a candidate
  /// step whose reads-from menu had more than one entry, and Variants
  /// sums those menus — so Variants/BranchPoints is the average branching
  /// factor the memory model imposed on top of the schedule tree.  Both
  /// stay 0 under SC (every menu is a singleton).
  std::uint64_t ReadsFromBranchPoints = 0;
  std::uint64_t ReadsFromVariants = 0;

  /// Work-sharing telemetry.  Donations and Steals measure DISTINCT
  /// events on the two sides of the injector: Donations counts frames a
  /// busy worker moved IN, Steals counts frames idle workers took OUT —
  /// excluding the root frame's initial pull, which seeds the search
  /// rather than rebalancing it (the same exemption before and after
  /// batching: the seed is the one pull that exists with no donation).
  /// On a run that drains its injector the two are equal by conservation;
  /// they differ when an early abort strands donated frames.  A donation
  /// moves up to StealBatch (8) frames but counts each frame once;
  /// StealBatches counts the batches, so Donations/StealBatches is the
  /// realized batch size.  All are 0 on single-threaded runs.
  std::uint64_t Donations = 0;
  std::uint64_t Steals = 0;
  std::uint64_t StealBatches = 0;

  /// States expanded by each worker (index = worker id) — the per-worker
  /// balance bench_explorer reports; WorkerMaxStack is the deepest DFS
  /// stack each worker held (its peak queue depth).  A last child takes
  /// its parent's frame, so a one-CPU chain holds one frame.
  std::vector<std::uint64_t> WorkerStates;
  std::vector<std::uint64_t> WorkerMaxStack;

  std::vector<Log> Corpus;
};

/// Sound outcome set with structural comparison.  An earlier version
/// hashed returns and thread ids by chain-multiplying with no field
/// separators, so e.g. returns {1:[], 2:[]} and {1:[2]} hashed equal over
/// the same log and one outcome was silently dropped — an unsoundness in
/// every checker built on the Explorer.  This version mixes each field
/// through hashMix64 with length prefixes, and resolves residual 64-bit
/// collisions by structural comparison instead of merging.  The
/// refinement engine matches outcomes with an OutcomeTrie instead
/// (machine/Soundness.h), which needs no hash at all.
class OutcomeSet {
public:
  using ReturnMap = ccal::ReturnMap;

  static std::uint64_t hash(const Outcome &O) {
    return hashReturns(hashLog(O.FinalLog), O.Returns);
  }

  /// An outcome's 128-bit fingerprint: hash() plus a second hash over the
  /// same fields built from hashMixAlt64/hashCombineAlt, so the halves
  /// collide independently (hash compaction, Stern & Dill 1995).  The
  /// OnOutcome path counts distinct outcomes by it without keeping them.
  /// The log keeps a running value of both halves, so a fingerprint costs
  /// O(returns), whatever the log's length.
  struct Fingerprint {
    std::uint64_t Hash = 0, Alt = 0;
    friend bool operator==(const Fingerprint &A, const Fingerprint &B) {
      return A.Hash == B.Hash && A.Alt == B.Alt;
    }
    friend bool operator<(const Fingerprint &A, const Fingerprint &B) {
      return A.Hash != B.Hash ? A.Hash < B.Hash : A.Alt < B.Alt;
    }
  };
  static Fingerprint fingerprint(const Outcome &O) {
    std::uint64_t H =
        hashCombineAlt(O.FinalLog.runAltHash(), O.FinalLog.size());
    H = hashCombineAlt(H, O.Returns.size());
    for (const auto &[Tid, Rets] : O.Returns) {
      H = hashCombineAlt(H, Tid);
      H = hashCombineAlt(H, Rets.size());
      for (std::int64_t R : Rets)
        H = hashCombineAlt(H, static_cast<std::uint64_t>(R));
    }
    return Fingerprint{hash(O), H};
  }

  static bool same(const Outcome &A, const Outcome &B) {
    return A.FinalLog == B.FinalLog && A.Returns == B.Returns;
  }

  /// True when \p O was not seen before.
  bool insert(const Outcome &O) {
    std::vector<Outcome> &Bucket = Seen[hash(O)];
    for (const Outcome &Prev : Bucket)
      if (same(Prev, O))
        return false;
    Bucket.push_back(O);
    ++Count;
    return true;
  }

  /// True when \p O is in the set.
  bool contains(const Outcome &O) const {
    auto It = Seen.find(hash(O));
    if (It == Seen.end())
      return false;
    for (const Outcome &Prev : It->second)
      if (same(Prev, O))
        return true;
    return false;
  }

  size_t size() const { return Count; }

private:
  /// Folds \p Returns into the log hash \p H.
  static std::uint64_t hashReturns(std::uint64_t H, const ReturnMap &Returns) {
    H = hashCombine(H, Returns.size());
    for (const auto &[Tid, Rets] : Returns) {
      H = hashCombine(H, Tid);
      H = hashCombine(H, Rets.size());
      for (std::int64_t R : Rets)
        H = hashCombine(H, static_cast<std::uint64_t>(R));
    }
    return H;
  }

  std::unordered_map<std::uint64_t, std::vector<Outcome>> Seen;
  size_t Count = 0;
};

namespace detail {

/// Detects machines providing stepVariants()/step(Tid, Variant) — a weak
/// memory model whose steps have several reads-from choices.  Without
/// them every step has exactly one variant (classic SC exploration, zero
/// overhead on the hot path).
template <typename M, typename = void>
struct MachineHasVariants : std::false_type {};
template <typename M>
struct MachineHasVariants<
    M, std::void_t<decltype(std::declval<const M &>().stepVariants(
                       std::declval<ThreadId>())),
                   decltype(std::declval<M &>().step(
                       std::declval<ThreadId>(),
                       std::declval<unsigned>()))>> : std::true_type {};

/// The search engine shared by all machine types: an explicit-stack DFS
/// run by a pool of workers over a shared frontier.
///
/// Each worker owns a stack of frames; a frame is one machine snapshot
/// plus the iteration state over its schedulable children, so the top of
/// the stack advances exactly like the recursive formulation (a child
/// subtree is fully explored before the next sibling starts).  A parent's
/// last child takes the parent's own frame, so the stack holds only
/// frames with unvisited children plus the top.  A popped frame keeps its
/// slot: the next child pushed there is assigned into it, so every vector
/// in the slot keeps the capacity its previous occupant grew, and a frame
/// allocates nothing once the stack has been that deep before.  Work
/// sharing: when some worker is idle, a busy worker moves the
/// *shallowest* frame below its top with unvisited children — the
/// largest pending subtree — into the shared injector deque, where an
/// idle worker picks it up.  Every node is expanded exactly once, so all
/// counters are schedule-deterministic; only the order of
/// Outcomes/Corpus depends on the number of workers.
///
/// A single shared first-violation slot plus an atomic stop flag give
/// early abort: the first worker to find a violation wins, everyone else
/// drains.  With one worker the engine visits states in exactly the
/// recursive order and produces bit-identical results to the sequential
/// Explorer.
template <typename MachineT> class GenericDfs {
  /// Bytes per cache line on the hosts ccal runs on, spelled out:
  /// GCC 12 warns (-Winterference-size) wherever
  /// std::hardware_destructive_interference_size is used.
  static constexpr size_t CacheLine = 64;

public:
  using Options = GenericExploreOptions<MachineT>;
  using OutcomeFn = std::function<std::string(const Outcome &)>;

  /// Every terminal schedule's outcome goes to \p OnOutcome, which
  /// stands in for Opts.OnOutcome.
  GenericDfs(const Options &Opts, unsigned Workers,
             const OutcomeFn &OnOutcome)
      : Opts(Opts), OnOutcome(OnOutcome), Workers(Workers),
        OutcomeBatch(Workers > 1 ? MultiWorkerOutcomeBatch : 1),
        Shards(Workers) {}

  ExploreResult run(const MachineT &Root) {
    ExploreResult Res;
    if (!Root.ok()) {
      Res.Ok = false;
      Res.Violation = Root.error();
      return Res;
    }
    Injector.emplace_back(Root, /*LastId=*/~0u, /*Consec=*/0, /*Depth=*/0);
    InjectorSize.store(1, std::memory_order_relaxed);
    if (Workers == 1) {
      worker(0);
    } else {
      std::vector<std::thread> Pool;
      Pool.reserve(Workers);
      for (unsigned I = 0; I != Workers; ++I)
        Pool.emplace_back([this, I] { worker(I); });
      for (std::thread &T : Pool)
        T.join();
    }
    // Every worker added its schedules before it left, so Schedules is
    // the sum over the shards.
    Res.SchedulesExplored = Schedules.load();
    if (Res.SchedulesExplored > Opts.MaxSchedules)
      truncate(scheduleBudgetSpent());
    Res.Ok = !Violated;
    Res.Violation = std::move(Violation);
    Res.Complete = Complete;
    Res.Truncation = std::move(Truncation);
    std::uint64_t Pulls = 0;
    for (const Shard &S : Shards) {
      Res.StatesExplored += S.States;
      Res.InvariantChecks += S.InvariantChecks;
      Res.ReadsFromBranchPoints += S.RfBranchPoints;
      Res.ReadsFromVariants += S.RfVariants;
      Res.Donations += S.Donations;
      Res.StealBatches += S.DonationBatches;
      Pulls += S.Pulls;
      Res.WorkerStates.push_back(S.States);
      Res.WorkerMaxStack.push_back(S.MaxStack);
      Res.MaxLogLen = std::max(Res.MaxLogLen, S.MaxLogLen);
    }
    // The root frame's pull is a seed, not a steal (see
    // ExploreResult::Donations — the seed is the one pull with no
    // matching donation, at every batch size).
    Res.Steals = Pulls > 0 ? Pulls - 1 : 0;
    mergeShardResults(Res);
    return Res;
  }

private:
  /// One DFS node: a machine snapshot plus sibling-iteration state.  The
  /// slot a frame lives in is reused by later frames.
  struct Frame {
    MachineT M;
    ThreadId LastId;
    unsigned Consec;
    std::uint64_t Depth;
    /// The children to step: the schedulable set, less the last stepper
    /// when fairness forbids it another step (expand() decides).
    std::vector<ThreadId> Ready;
    size_t NextChild = 0;
    bool Expanded = false;

    /// Reads-from choices per Ready entry (weak memory models only; empty
    /// means one variant each).  Every variant of a candidate is explored
    /// before the candidate cursor advances, so the last-child and
    /// donation conditions on NextChild stay valid unchanged.
    std::vector<unsigned> ReadyVars;
    unsigned NextVariant = 0; ///< variant cursor within Ready[NextChild]

    /// Copies \p Src straight into M, so a frame built in its stack slot
    /// costs one machine copy.
    Frame(const MachineT &Src, ThreadId LastId, unsigned Consec,
          std::uint64_t Depth)
        : M(Src), LastId(LastId), Consec(Consec), Depth(Depth) {}

    /// Readies a reused slot, whose M the caller has already assigned (or
    /// will step in place), for a fresh node; the vectors are cleared, not
    /// freed.
    void reset(ThreadId NewLastId, unsigned NewConsec,
               std::uint64_t NewDepth) {
      LastId = NewLastId;
      Consec = NewConsec;
      Depth = NewDepth;
      Ready.clear();
      NextChild = 0;
      Expanded = false;
      ReadyVars.clear();
      NextVariant = 0;
    }
  };

  /// Per-worker counters AND result buffers, merged after the join (no
  /// hot-path sharing).  Each shard starts on its own cache line, so a
  /// worker's per-state counters never share one with the previous
  /// shard's vectors.  A worker buffers up to OutcomeBatch outcomes in
  /// Pending, hands them to the callback together (flushOutcomes) and
  /// then keeps only fingerprints, which it sorts on its way out and the
  /// join counts (mergeShardResults).
  struct alignas(CacheLine) Shard {
    std::uint64_t States = 0;
    std::uint64_t InvariantChecks = 0;
    std::uint64_t MaxLogLen = 0;
    std::uint64_t RfBranchPoints = 0;  ///< candidates with >1 reads-from
    std::uint64_t RfVariants = 0;      ///< menu entries over those
    std::uint64_t Pulls = 0;           ///< frames taken from the injector
    std::uint64_t Donations = 0;       ///< frames moved into the injector
    std::uint64_t DonationBatches = 0; ///< donate() calls that moved frames
    std::uint64_t MaxStack = 0;        ///< deepest DFS stack held
    std::uint64_t UnaddedSchedules = 0; ///< reached, not yet in Schedules

    std::vector<Log> Corpus; ///< terminal + sampled logs
    OutcomeSet Dedup;        ///< the outcomes whose logs entered Corpus

    /// The first NPending outcomes of Pending were reached but not yet
    /// handed over.  The slots past them are kept, so the next outcome is
    /// assigned into storage an earlier one grew.
    std::vector<Outcome> Pending;
    size_t NPending = 0;
    /// One fingerprint per handed-over terminal schedule, split by whether
    /// the callback accepted the outcome; sorted and deduplicated once the
    /// worker leaves the search.
    std::vector<OutcomeSet::Fingerprint> Accepted, Rejected;
  };

  void worker(unsigned Idx) {
    Shard &S = Shards[Idx];
    // The DFS stack is Stack[0, Live).  Popping lowers Live and leaves the
    // frame in its slot; the next push there assigns into it.
    std::vector<Frame> Stack;
    size_t Live = 0;
    while (true) {
      if (Stop.load(std::memory_order_relaxed))
        Live = 0;
      if (Live == 0) {
        // The one flush point besides a full batch: an idle, stopped,
        // cancelled, truncated or finished worker holds no outcomes and
        // has added every schedule it reached.
        flushOutcomes(S);
        addSchedules(S);
        if (!pullWork(Stack)) {
          // Every worker leaves together, so the sorts run in parallel
          // and the join only counts across sorted runs.
          sortUnique(S.Accepted);
          sortUnique(S.Rejected);
          return;
        }
        Live = 1;
        ++S.Pulls;
        continue;
      }
      // Donations are gated on an EMPTY injector (the atomic mirror): a
      // hungry count alone made donors push one frame per loop iteration
      // faster than thieves could drain them — the single-frame churn
      // behind the old sub-1.0 multi-thread speedups.
      if (Workers > 1 && Hungry.load(std::memory_order_relaxed) > 0 &&
          InjectorSize.load(std::memory_order_relaxed) == 0)
        donate(Stack, Live, S);
      Frame &Top = Stack[Live - 1];
      if (!Top.Expanded) {
        if (!expand(Top, S)) {
          --Live;
          continue;
        }
      }
      if (Top.NextChild >= Top.Ready.size()) {
        --Live;
        continue;
      }
      const size_t ChildIdx = Top.NextChild;
      const unsigned Variant = Top.NextVariant;
      if (++Top.NextVariant >= variantsOf(Top, ChildIdx)) {
        ++Top.NextChild;
        Top.NextVariant = 0;
      }
      const ThreadId C = Top.Ready[ChildIdx];
      const unsigned Consec = C == Top.LastId ? Top.Consec + 1 : 1;
      const std::uint64_t Depth = Top.Depth;
      // The last child takes its parent's slot: NextChild is already past
      // the end, so the parent could only be popped from here on (donate()
      // skips child-less frames), and its machine steps in place.  Any
      // other child is copy-assigned into the slot above.
      if (Top.NextChild >= Top.Ready.size()) {
        Top.reset(C, Consec, Depth + 1);
      } else if (Live == Stack.size()) {
        // A position reached for the first time: the slot is built.
        // emplace_back builds the new element before it relocates the old
        // ones, so Top.M may be its source, but Top dangles after a
        // reallocation and is not read past this point.
        Stack.emplace_back(Top.M, C, Consec, Depth + 1);
        ++Live;
      } else {
        Stack[Live].M = Top.M;
        Stack[Live++].reset(C, Consec, Depth + 1);
      }
      Frame &Child = Stack[Live - 1];
      if (!stepOn(Child.M, C, Variant)) {
        violate(Child.M, Child.M.error());
        --Live;
        continue;
      }
      if (Opts.CollectCorpus && (Depth & 3) == 0)
        pushCorpus(Child.M.log(), S);
      S.MaxStack = std::max(S.MaxStack, static_cast<std::uint64_t>(Live));
    }
  }

  /// First visit of a node: budget, invariant, terminal, and depth checks.
  /// True when the node has children to iterate.
  bool expand(Frame &F, Shard &S) {
    if (Opts.Cancel && Opts.Cancel->load(std::memory_order_relaxed)) {
      truncate(Opts.CancelReason);
      return false;
    }
    if (Schedules.load(std::memory_order_relaxed) + S.UnaddedSchedules >=
        Opts.MaxSchedules) {
      truncate(scheduleBudgetSpent());
      return false;
    }
    ++S.States;
    S.MaxLogLen =
        std::max(S.MaxLogLen, static_cast<std::uint64_t>(F.M.log().size()));
    if (Opts.Invariant) {
      ++S.InvariantChecks;
      std::string V = Opts.Invariant(F.M);
      if (!V.empty()) {
        violate(F.M, "invariant violated: " + V);
        return false;
      }
    }
    F.M.schedulable(F.Ready);
    if constexpr (MachineHasVariants<MachineT>::value) {
      // One menu query per candidate per node; a budget overflow shows up
      // as a count above the machine's cap and the step itself faults
      // fail-closed, so no clamping happens here.  ReadyVars was cleared
      // with the slot and keeps its capacity.
      for (ThreadId C : F.Ready) {
        unsigned V = std::max(1u, F.M.stepVariants(C));
        F.ReadyVars.push_back(V);
        if (V > 1) {
          ++S.RfBranchPoints;
          S.RfVariants += V;
        }
      }
    }
    // Fairness: one participant may not run more than FairnessBound
    // consecutive steps while someone else is waiting, so the last
    // stepper leaves the menu (its reads-from choices were counted
    // above).  A parent whose only other candidate it was then steps its
    // last child in place.
    if (F.Ready.size() > 1 && F.Consec >= Opts.FairnessBound) {
      auto It = std::find(F.Ready.begin(), F.Ready.end(), F.LastId);
      if (It != F.Ready.end()) {
        if (!F.ReadyVars.empty())
          F.ReadyVars.erase(F.ReadyVars.begin() + (It - F.Ready.begin()));
        F.Ready.erase(It);
      }
    }
    if (F.Ready.empty()) {
      if (!F.M.allIdle()) {
        violate(F.M, "deadlock: nothing schedulable but work remains");
        return false;
      }
      if (++S.UnaddedSchedules >= OutcomeBatch)
        addSchedules(S);
      recordOutcome(F.M, S);
      return false;
    }
    if (F.Depth >= Opts.MaxSteps) {
      violate(F.M, "step bound exceeded (divergence under fair schedules?)");
      return false;
    }
    F.Expanded = true;
    return true;
  }

  /// Reads-from choices of Ready entry \p Idx (1 under SC).
  static unsigned variantsOf(const Frame &F, size_t Idx) {
    return F.ReadyVars.empty() ? 1u : F.ReadyVars[Idx];
  }

  /// Steps \p C with reads-from choice \p V; machines without variants
  /// take their single step (V is then always 0).
  static bool stepOn(MachineT &M, ThreadId C, unsigned V) {
    if constexpr (MachineHasVariants<MachineT>::value)
      return M.step(C, V);
    else
      return M.step(C);
  }

  /// Every terminal schedule's outcome goes into the worker's batch,
  /// which is handed to the callback once full (or when the worker's
  /// stack runs empty).  The outcome is assigned into a kept slot, so the
  /// log's chunk table and tail and the returns reuse what an earlier
  /// outcome grew.  The corpus takes each distinct terminal log once (a
  /// copy per schedule would crowd the capped buffer), so Dedup holds the
  /// outcomes whose logs it took and stops growing once the corpus is
  /// full.
  void recordOutcome(const MachineT &M, Shard &S) {
    if (S.NPending == S.Pending.size())
      S.Pending.emplace_back();
    Outcome &O = S.Pending[S.NPending++];
    O.FinalLog = M.log();
    M.returns(O.Returns);
    if (Opts.CollectCorpus && S.Corpus.size() < Opts.MaxCorpus &&
        S.Dedup.insert(O))
      S.Corpus.push_back(O.FinalLog);
    if (S.NPending >= OutcomeBatch)
      flushOutcomes(S);
  }

  /// Hands the worker's pending outcomes to OnOutcome in order, in one
  /// ResMu acquisition (callers keep plain tallies, so calls stay
  /// serialized); the first rejection is recorded with its outcome's log.
  /// Only fingerprints stay in the shard, filed after the lock is
  /// released; distinct outcomes are counted at the join.
  void flushOutcomes(Shard &S) {
    if (S.NPending == 0)
      return;
    std::uint64_t Rejects = 0; // bit I: the callback rejected Pending[I]
    {
      std::lock_guard<std::mutex> L(ResMu);
      for (size_t I = 0; I != S.NPending; ++I) {
        std::string V = OnOutcome(S.Pending[I]);
        if (V.empty())
          continue;
        Rejects |= std::uint64_t(1) << I;
        if (!Violated) {
          Violated = true;
          Violation = V + "\n  log: " + logToString(S.Pending[I].FinalLog);
        }
      }
    }
    for (size_t I = 0; I != S.NPending; ++I)
      ((Rejects >> I & 1) ? S.Rejected : S.Accepted)
          .push_back(OutcomeSet::fingerprint(S.Pending[I]));
    S.NPending = 0;
    if (Rejects)
      stopAll();
  }

  /// Sorts \p Fs and drops its duplicates.
  static void sortUnique(std::vector<OutcomeSet::Fingerprint> &Fs) {
    std::sort(Fs.begin(), Fs.end());
    Fs.erase(std::unique(Fs.begin(), Fs.end()), Fs.end());
  }

  /// Joins the per-worker result shards after the workers exit, in worker
  /// order: counts the distinct fingerprints, and concatenates the corpus
  /// up to its cap.
  void mergeShardResults(ExploreResult &Res) {
    Res.AcceptedOutcomes = countDistinct(
        &Shard::Accepted, [](const OutcomeSet::Fingerprint &) { return true; });
    // A rejected outcome that another schedule's callback accepted is
    // counted already.
    Res.DistinctOutcomes =
        Res.AcceptedOutcomes +
        countDistinct(&Shard::Rejected,
                      [this](const OutcomeSet::Fingerprint &F) {
                        for (const Shard &S : Shards)
                          if (std::binary_search(S.Accepted.begin(),
                                                 S.Accepted.end(), F))
                            return false;
                        return true;
                      });
    for (Shard &S : Shards) {
      std::vector<OutcomeSet::Fingerprint>().swap(S.Accepted);
      std::vector<OutcomeSet::Fingerprint>().swap(S.Rejected);
      for (Log &L : S.Corpus) {
        if (Res.Corpus.size() >= Opts.MaxCorpus)
          break;
        Res.Corpus.push_back(std::move(L));
      }
    }
  }

  /// The number of distinct fingerprints \p Keep holds true for in the
  /// union of one list of every shard, each already sorted and without
  /// duplicates (see worker).  A k-way merge over the lists' heads visits
  /// each fingerprint once, in order, and copies none of them.
  template <typename KeepFn>
  std::uint64_t
  countDistinct(const std::vector<OutcomeSet::Fingerprint> Shard::*List,
                KeepFn Keep) const {
    using Fp = OutcomeSet::Fingerprint;
    using Head = std::pair<const Fp *, const Fp *>; // next, end of a list
    auto Later = [](const Head &A, const Head &B) {
      return *B.first < *A.first;
    };
    std::priority_queue<Head, std::vector<Head>, decltype(Later)> Heads(
        Later);
    for (const Shard &S : Shards)
      if (!(S.*List).empty())
        Heads.push({(S.*List).data(), (S.*List).data() + (S.*List).size()});
    std::uint64_t N = 0;
    const Fp *Last = nullptr;
    while (!Heads.empty()) {
      Head H = Heads.top();
      Heads.pop();
      if ((!Last || !(*Last == *H.first)) && Keep(*H.first))
        ++N;
      Last = H.first;
      if (++H.first != H.second)
        Heads.push(H);
    }
    return N;
  }

  void violate(const MachineT &M, const std::string &Msg) {
    std::string Full = Msg + "\n  log: " + logToString(M.log());
    {
      std::lock_guard<std::mutex> L(ResMu);
      if (!Violated) {
        Violated = true;
        Violation = std::move(Full);
      }
    }
    stopAll();
  }

  void stopAll() {
    Stop.store(true, std::memory_order_relaxed);
    QCv.notify_all();
  }

  /// Fails the run closed with \p Why, unless an earlier truncation named
  /// its cause, and stops every worker.
  void truncate(const std::string &Why) {
    {
      std::lock_guard<std::mutex> L(ResMu);
      Complete = false;
      if (Truncation.empty())
        Truncation = Why;
    }
    stopAll();
  }

  std::string scheduleBudgetSpent() const {
    return "MaxSchedules budget (" + std::to_string(Opts.MaxSchedules) +
           ") exhausted";
  }

  /// Adds the worker's schedules to the shared count the budget reads:
  /// once per OutcomeBatch of them, and when its stack runs empty.
  void addSchedules(Shard &S) {
    if (S.UnaddedSchedules == 0)
      return;
    Schedules.fetch_add(S.UnaddedSchedules, std::memory_order_relaxed);
    S.UnaddedSchedules = 0;
  }

  /// Sampled intermediate logs go straight into the worker's own shard —
  /// the former global buffer serialized every worker on ResMu mid-search.
  void pushCorpus(const Log &L, Shard &S) {
    if (S.Corpus.size() < Opts.MaxCorpus)
      S.Corpus.push_back(L);
  }

  /// Blocks until a frame is available, and moves it into the bottom slot
  /// of \p Stack; false means the search is over and the worker should
  /// exit.
  bool pullWork(std::vector<Frame> &Stack) {
    std::unique_lock<std::mutex> L(QMu);
    ++Idle;
    Hungry.store(Idle, std::memory_order_relaxed);
    while (true) {
      if (Finished)
        return false;
      if (!Injector.empty() && !Stop.load(std::memory_order_relaxed)) {
        if (Stack.empty())
          Stack.push_back(std::move(Injector.front()));
        else
          Stack[0] = std::move(Injector.front());
        Injector.pop_front();
        InjectorSize.store(Injector.size(), std::memory_order_relaxed);
        --Idle;
        Hungry.store(Idle, std::memory_order_relaxed);
        return true;
      }
      if (Stop.load(std::memory_order_relaxed) || Idle == Workers) {
        // Nothing left anywhere and nobody can produce more (or we are
        // aborting): wake everyone up to exit.
        Finished = true;
        QCv.notify_all();
        return false;
      }
      QCv.wait(L);
    }
  }

  /// Moves up to StealBatch of the shallowest frames with unvisited
  /// children — the largest pending subtrees — into the shared injector
  /// as one batch under one lock acquisition; the donor keeps the rest
  /// of its stack.  Donating one frame per call (the old behavior) made
  /// a donor re-enter the injector lock on nearly every expansion while
  /// any worker was hungry; batching plus the caller's injector-empty
  /// gate bounds donation traffic by steals actually taken.  The live
  /// frames are Stack[0, Live), and the top one is never donated: a donor
  /// that gave away the frame it was about to step would go idle at once,
  /// and a frame just pulled would bounce straight back to the worker it
  /// came from.  So every donated frame has had a child stepped since its
  /// worker got it, and donations never outnumber explored states.  True
  /// when anything was donated.
  bool donate(std::vector<Frame> &Stack, size_t Live, Shard &S) {
    std::vector<Frame> Moved;
    for (size_t I = 0; I + 1 < Live; ++I) {
      Frame &F = Stack[I];
      if (Moved.size() >= StealBatch)
        break;
      if (!F.Expanded || F.NextChild >= F.Ready.size())
        continue;
      Frame Rest(F.M, F.LastId, F.Consec, F.Depth);
      Rest.Ready = F.Ready;
      Rest.NextChild = F.NextChild;
      Rest.ReadyVars = F.ReadyVars;
      Rest.NextVariant = F.NextVariant;
      Rest.Expanded = true;
      F.NextChild = F.Ready.size();
      F.NextVariant = 0;
      Moved.push_back(std::move(Rest));
    }
    if (Moved.empty())
      return false;
    S.Donations += Moved.size();
    ++S.DonationBatches;
    {
      std::lock_guard<std::mutex> L(QMu);
      for (Frame &F : Moved)
        Injector.push_back(std::move(F));
      InjectorSize.store(Injector.size(), std::memory_order_relaxed);
    }
    QCv.notify_all();
    return true;
  }

  /// Frames moved per donation (see donate()).
  static constexpr size_t StealBatch = 8;

  /// Outcomes a worker hands to OnOutcome per ResMu acquisition when
  /// several workers share the lock; one worker hands each over at once,
  /// which keeps sequential runs bit-identical.
  static constexpr size_t MultiWorkerOutcomeBatch = 32;
  static_assert(MultiWorkerOutcomeBatch <= 64,
                "flushOutcomes keeps one verdict bit per pending outcome");

  // The members below sit on cache lines by how often workers write them:
  // a line that every worker reads on every iteration holds nothing that
  // is written more often than once per search or per idle spell.

  // Not written during the search (each worker writes only its own
  // Shard, which sits on lines of its own).
  const Options &Opts;
  const OutcomeFn &OnOutcome;
  const unsigned Workers;
  const size_t OutcomeBatch;
  std::vector<Shard> Shards;

  // Read on every loop iteration: early abort and the donation gate.
  alignas(CacheLine) std::atomic<bool> Stop{false};
  std::atomic<unsigned> Hungry{0};     ///< lock-free mirror of Idle
  std::atomic<size_t> InjectorSize{0}; ///< lock-free mirror of the deque

  // The schedule budget, written once per OutcomeBatch of schedules.
  alignas(CacheLine) std::atomic<std::uint64_t> Schedules{0};

  // Work sharing, written on every pull and donation.
  alignas(CacheLine) std::mutex QMu;
  std::condition_variable QCv;
  std::deque<Frame> Injector; ///< guarded by QMu
  unsigned Idle = 0;          ///< guarded by QMu
  bool Finished = false;      ///< guarded by QMu

  // Shared result slots (first violation wins).  Fingerprints and the
  // corpus live in the per-worker Shards; ResMu also serializes the
  // OnOutcome calls, taken once per batch (flushOutcomes).
  alignas(CacheLine) std::mutex ResMu;
  bool Violated = false;  ///< guarded by ResMu
  std::string Violation;  ///< guarded by ResMu
  bool Complete = true;   ///< guarded by ResMu
  std::string Truncation; ///< guarded by ResMu
};

/// Publishes one run's aggregate counters into the obs metrics registry
/// (no-op while the registry is disabled); defined in Explorer.cpp so the
/// template below stays header-only.
void publishExploreMetrics(const ExploreResult &Res);

} // namespace detail

/// Explores every schedule reachable from \p Root, on Opts.Threads
/// workers.
template <typename MachineT>
ExploreResult exploreGeneric(const MachineT &Root,
                             const GenericExploreOptions<MachineT> &Opts) {
  obs::Span ExploreSpan("explorer.explore", "explorer");
  unsigned Workers = Opts.Threads;
  if (Workers == 0) {
    Workers = std::thread::hardware_concurrency();
    if (Workers == 0)
      Workers = 1;
  }
  // Without a caller's callback the distinct outcomes are stored, through
  // the same batched path: the callback runs serialized, so it needs no
  // lock of its own.
  OutcomeSet Seen;
  std::vector<Outcome> Stored;
  bool StoreFull = false;
  std::function<std::string(const Outcome &)> Store;
  if (!Opts.OnOutcome)
    Store = [&](const Outcome &O) -> std::string {
      if (!Seen.insert(O))
        return "";
      if (Stored.size() < Opts.MaxStoredOutcomes)
        Stored.push_back(O);
      else
        StoreFull = true;
      return "";
    };
  detail::GenericDfs<MachineT> D(Opts, Workers,
                                 Opts.OnOutcome ? Opts.OnOutcome : Store);
  ExploreResult Res = D.run(Root);
  Res.Outcomes = std::move(Stored);
  if (StoreFull) {
    Res.Complete = false;
    if (Res.Truncation.empty())
      Res.Truncation = "MaxStoredOutcomes budget (" +
                       std::to_string(Opts.MaxStoredOutcomes) + ") exhausted";
  }
  if (obs::enabled())
    detail::publishExploreMetrics(Res);
  return Res;
}

/// Options alias for the multicore machine (the common case).
using ExploreOptions = GenericExploreOptions<MultiCoreMachine>;

/// Explores every schedule of the multicore machine described by \p Cfg.
ExploreResult exploreMachine(MachineConfigPtr Cfg,
                             const ExploreOptions &Opts);

/// Runs a single schedule chosen by \p Pick (given the schedulable set and
/// the log, return the CPU to step); used to replay specific interleavings
/// such as the paper's §2 example.
Outcome runSchedule(
    MachineConfigPtr Cfg,
    const std::function<ThreadId(const std::vector<ThreadId> &, const Log &)>
        &Pick,
    std::string *Error = nullptr);

} // namespace ccal

#endif // CCAL_MACHINE_EXPLORER_H
