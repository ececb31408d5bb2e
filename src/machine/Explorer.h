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
/// The fairness bound caps how many consecutive steps one participant may
/// take while others are runnable — the finite form of the paper's fair
/// hardware scheduler assumption (§3.2), without which a spinning CPU
/// would generate infinitely many schedules.
///
/// The DFS is generic over the machine: the multicore machine (§3) and the
/// multithreaded machine (§5) both instantiate it.  A machine must be
/// copyable and provide ok()/error(), allIdle(), schedulable(), step(),
/// log(), and returns().
///
/// Machines additionally providing stepFootprint()/eventFootprint() (see
/// core/Footprint.h) unlock the opt-in partial-order reduction
/// (GenericExploreOptions::Por): source-set DPOR (Abdulla et al., Optimal
/// Dynamic Partial Order Reduction) over the footprint-conflict
/// independence relation.  Instead of statically enumerating every
/// schedulable child, each node starts with ONE child and grows a
/// backtrack (source) set on demand: whenever an explored step races with
/// an earlier event on the DFS path, the reversal is scheduled at the
/// race's pre-state — unless the source-set check shows an already-
/// scheduled child covers it.  Godefroid-style sleep sets prune siblings
/// of already-explored commuting subtrees on top, and outcomes are
/// recorded with canonical (Mazurkiewicz-trace) logs so the deduplicated
/// outcome set is identical to full exploration's.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_MACHINE_EXPLORER_H
#define CCAL_MACHINE_EXPLORER_H

#include "core/Footprint.h"
#include "machine/MultiCore.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <vector>

namespace ccal {

/// One terminal execution.
struct Outcome {
  Log FinalLog;
  std::map<ThreadId, std::vector<std::int64_t>> Returns;
};

/// Exploration knobs, parameterized by the machine type so invariants can
/// inspect the concrete machine.
template <typename MachineT> struct GenericExploreOptions {
  /// Max consecutive steps of one participant while another is schedulable
  /// (the paper's "any CPU can be scheduled within m steps").  Ignored
  /// under Por — see there.
  unsigned FairnessBound = 6;

  /// Budgets; exceeding MaxSteps along a path is reported as divergence.
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

  /// Partial-order reduction: source-set DPOR with sleep sets over the
  /// machine's declared step footprints (see the file comment).  Opt-in,
  /// and changes the exploration regime in three documented ways:
  ///
  ///  - FairnessBound is IGNORED.  The consecutive-steps filter is a
  ///    property of one linearization, not of its Mazurkiewicz trace: the
  ///    interleaving POR explores on behalf of a skipped one can contain
  ///    a longer consecutive run and be pruned even though the skipped
  ///    interleaving would not be, losing outcomes.  Bound spinning
  ///    workloads with MaxParticipantSteps instead, which is
  ///    trace-invariant (a per-participant total is the same in every
  ///    linearization of a trace).
  ///  - Work sharing is DISABLED (donations stop; extra workers idle).
  ///    DPOR's race detection inserts backtrack points into the ANCESTORS
  ///    of the step being explored, which must therefore still sit on the
  ///    exploring worker's own stack — a donated subtree would race-walk
  ///    into frames its donor still owns.  Run POR single-threaded.
  ///  - Outcome logs are CANONICALIZED (see canonicalizeLog): every
  ///    shared step appends a participant-tagged event, so raw final logs
  ///    are in bijection with schedules and POR would otherwise lose
  ///    outcomes by construction.  Canonical logs identify exactly the
  ///    schedules POR deduplicates.
  ///
  /// On machines without stepFootprint()/eventFootprint() the reduction
  /// silently degrades to full exploration (ExploreResult::PorApplied
  /// reports which happened).  Soundness rests on honest footprints;
  /// checkPorEquivalence verifies it differentially.  Over-approximated
  /// footprints (up to Footprint::opaque) stay sound and degrade toward
  /// full exploration.
  bool Por = false;

  /// Cap on the TOTAL steps any one participant takes along a path; 0 is
  /// unlimited.  Exceeding it prunes silently, like the fairness bound —
  /// it is the trace-invariant divergence bound to use with Por (and is
  /// honored without Por too, so differential runs prune identically).
  std::uint64_t MaxParticipantSteps = 0;

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
  std::function<std::string(const Outcome &)> OnOutcome;

  /// Cap on stored outcomes when OnOutcome is not set.
  size_t MaxStoredOutcomes = 1u << 18;

  /// Worker threads sharing the search frontier.  1 (the default) runs the
  /// exact sequential DFS and produces bit-identical results to the
  /// single-threaded Explorer; 0 means one worker per hardware thread.
  /// With more than one worker, Invariant must be safe to call
  /// concurrently on distinct machine snapshots (log-replay invariants
  /// are); OnOutcome calls are serialized by the Explorer itself, so a
  /// callback needs no locking of its own.
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

  /// True when the partial-order reduction was actually active (Por
  /// requested and the machine provides footprints); outcome logs are
  /// then canonical trace forms rather than raw linearizations.
  bool PorApplied = false;

  std::uint64_t PorSleepSkips = 0; ///< children skipped via sleep sets

  /// Backtrack points DPOR's race detection inserted into ancestor
  /// frames' source sets (one count per NEW entry; re-detections of an
  /// already-scheduled reversal are free).
  std::uint64_t DporBacktracks = 0;

  std::string Violation; ///< first violation with its log

  std::vector<Outcome> Outcomes; ///< one per schedule (deduplicated)

  /// OnOutcome runs only: the distinct outcomes passed to the callback and
  /// the distinct ones it accepted, counted by 128-bit fingerprint
  /// (OutcomeSet::fingerprint) at the join; a run stopped early counts
  /// those reached before the stop.  Every outcome is matched before it
  /// is counted, so a collision can only under-count.
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
  /// stack each worker held (its peak queue depth).
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
/// collisions by structural comparison instead of merging.  It is also
/// the outcome-matching structure of the refinement checkers, replacing
/// their former string keys (log text joined with separators that can
/// occur in the data — ambiguous, and O(log length) per comparison even
/// on hash-distinguishable outcomes).
class OutcomeSet {
public:
  static std::uint64_t hash(const Outcome &O) {
    std::uint64_t H = hashLog(O.FinalLog);
    H = hashCombine(H, O.Returns.size());
    for (const auto &[Tid, Rets] : O.Returns) {
      H = hashCombine(H, Tid);
      H = hashCombine(H, Rets.size());
      for (std::int64_t R : Rets)
        H = hashCombine(H, static_cast<std::uint64_t>(R));
    }
    return H;
  }

  /// An outcome's 128-bit fingerprint: hash() plus a second hash over the
  /// same fields built from hashMixAlt64/hashCombineAlt, so the halves
  /// collide independently (hash compaction, Stern & Dill 1995).  The
  /// OnOutcome path counts distinct outcomes by it without keeping them.
  /// The second half walks the log: the log keeps a running value of the
  /// first half only.
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
    std::uint64_t H = hashCombineAlt(0, O.FinalLog.size());
    for (const Event &E : O.FinalLog) {
      H = hashCombineAlt(H, E.Tid);
      H = hashCombineAlt(H, E.Kind.strHash());
      H = hashCombineAlt(H, E.Args.size());
      for (std::int64_t A : E.Args)
        H = hashCombineAlt(H, static_cast<std::uint64_t>(A));
    }
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
  std::unordered_map<std::uint64_t, std::vector<Outcome>> Seen;
  size_t Count = 0;
};

namespace detail {

/// Detects machines providing stepFootprint()/eventFootprint(); the Por
/// option degrades to full exploration without them.
template <typename M, typename = void>
struct MachineHasFootprint : std::false_type {};
template <typename M>
struct MachineHasFootprint<
    M, std::void_t<decltype(std::declval<const M &>().stepFootprint(
                       std::declval<ThreadId>())),
                   decltype(std::declval<const M &>().eventFootprint(
                       std::declval<const Event &>()))>> : std::true_type {};

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
/// subtree is fully explored before the next sibling starts).  Work
/// sharing: when some worker is idle, a busy worker moves the
/// *shallowest* frame with unvisited children — the largest pending
/// subtree — into the shared injector deque, where an idle worker picks
/// it up.  Every node is expanded exactly once, so all counters are
/// schedule-deterministic; only the order of Outcomes/Corpus depends on
/// the number of workers.
///
/// A single shared first-violation slot plus an atomic stop flag give
/// early abort: the first worker to find a violation wins, everyone else
/// drains.  With one worker the engine visits states in exactly the
/// recursive order and produces bit-identical results to the sequential
/// Explorer.
template <typename MachineT> class GenericDfs {
public:
  using Options = GenericExploreOptions<MachineT>;

  GenericDfs(const Options &Opts, unsigned Workers)
      : Opts(Opts), Workers(Workers),
        PorOn(Opts.Por && MachineHasFootprint<MachineT>::value),
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
    Res.Ok = !Violated;
    Res.Violation = std::move(Violation);
    Res.Complete = Complete;
    Res.Truncation = std::move(Truncation);
    Res.PorApplied = PorOn;
    Res.SchedulesExplored = Schedules.load();
    std::uint64_t Pulls = 0;
    for (const Shard &S : Shards) {
      Res.StatesExplored += S.States;
      Res.InvariantChecks += S.InvariantChecks;
      Res.PorSleepSkips += S.PorSkips;
      Res.DporBacktracks += S.DporBacktracks;
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
  /// A sleep-set entry: participant Tid's next step (with footprint Foot)
  /// is already covered — a sibling subtree explored it first and every
  /// continuation interleaving it later commutes into that subtree.
  using SleepEntry = ParticipantFootprint;

  /// One DFS node: a machine snapshot plus sibling-iteration state.
  struct Frame {
    MachineT M;
    ThreadId LastId;
    unsigned Consec;
    std::uint64_t Depth;
    /// The full schedulable set (fairness reads its size even after some
    /// children have been visited or the frame has been donated).
    std::vector<ThreadId> Ready;
    size_t NextChild = 0;
    bool Expanded = false;

    /// Reads-from choices per Ready entry (weak memory models only; empty
    /// means one variant each).  Every variant of a candidate is explored
    /// before the candidate cursor advances, so the machine-move and
    /// donation conditions on NextChild/NextBt stay valid unchanged.
    std::vector<unsigned> ReadyVars;
    unsigned NextVariant = 0; ///< variant cursor within Ready[NextChild]
    unsigned BtVariant = 0;   ///< variant cursor within Backtrack[NextBt]

    // POR state (filled only when the reduction is on).
    Footprint StepFoot;               ///< footprint of the step INTO this node
    std::vector<SleepEntry> Sleep;    ///< asleep at this node
    std::vector<SleepEntry> DoneSibs; ///< children already pushed here
    std::vector<Footprint> ReadyFoot; ///< footprint per Ready entry

    /// DPOR source set: indices into Ready, seeded with one child at
    /// expansion and grown by race detection in the subtree below (so it
    /// can grow while this frame is NOT on top of the stack — which is
    /// why iteration is by cursor, not by a precomputed child list, and
    /// why the machine-move last-child optimization is off under POR).
    std::vector<size_t> Backtrack;
    size_t NextBt = 0;

    /// Total steps per participant along the path to this node (kept only
    /// when MaxParticipantSteps bounds paths).
    std::map<ThreadId, std::uint64_t> StepTally;

    Frame(MachineT M, ThreadId LastId, unsigned Consec, std::uint64_t Depth)
        : M(std::move(M)), LastId(LastId), Consec(Consec), Depth(Depth) {}
  };

  /// Per-worker counters AND result buffers, merged after the join (no
  /// hot-path sharing).  The stored-outcome path deduplicates into the
  /// worker's own Dedup/Outcomes/Corpus, so recording a terminal outcome
  /// takes no lock at all; cross-worker duplicates collapse at the join
  /// (mergeShardResults).  With one worker this is exactly the former
  /// globally-locked recording, entry for entry.  The OnOutcome path keeps
  /// only fingerprints, counted at the join; its Dedup holds just the
  /// outcomes whose logs entered the corpus.
  struct Shard {
    std::uint64_t States = 0;
    std::uint64_t InvariantChecks = 0;
    std::uint64_t MaxLogLen = 0;
    std::uint64_t PorSkips = 0;
    std::uint64_t DporBacktracks = 0;
    std::uint64_t RfBranchPoints = 0;  ///< candidates with >1 reads-from
    std::uint64_t RfVariants = 0;      ///< menu entries over those
    std::uint64_t Pulls = 0;           ///< frames taken from the injector
    std::uint64_t Donations = 0;       ///< frames moved into the injector
    std::uint64_t DonationBatches = 0; ///< donate() calls that moved frames
    std::uint64_t MaxStack = 0;        ///< deepest DFS stack held

    OutcomeSet Dedup;              ///< this worker's distinct outcomes
    std::vector<Outcome> Outcomes; ///< stored-path results, search order
    std::vector<Log> Corpus;       ///< terminal + sampled logs
    bool StoreTruncated = false;   ///< hit MaxStoredOutcomes locally

    /// OnOutcome path: one fingerprint per terminal schedule, split by
    /// whether the callback accepted the outcome.
    std::vector<OutcomeSet::Fingerprint> Accepted, Rejected;
  };

  void worker(unsigned Idx) {
    Shard &S = Shards[Idx];
    std::vector<Frame> Stack;
    while (true) {
      if (Stop.load(std::memory_order_relaxed))
        Stack.clear();
      if (Stack.empty()) {
        if (!pullWork(Stack))
          return;
        ++S.Pulls;
        continue;
      }
      // Donations are gated on an EMPTY injector (the atomic mirror): a
      // hungry count alone made donors push one frame per loop iteration
      // faster than thieves could drain them — the single-frame churn
      // behind the old sub-1.0 multi-thread speedups.  Off under POR
      // (see GenericExploreOptions::Por: backtrack insertion needs the
      // full ancestor chain on one stack).
      if (Workers > 1 && !PorOn &&
          Hungry.load(std::memory_order_relaxed) > 0 &&
          InjectorSize.load(std::memory_order_relaxed) == 0)
        donate(Stack, S);
      Frame &Top = Stack.back();
      if (!Top.Expanded) {
        if (!expand(Top, S)) {
          Stack.pop_back();
          continue;
        }
      }
      size_t ChildIdx;
      unsigned Variant = 0;
      if (PorOn) {
        // DPOR: iterate the backtrack (source) set by cursor — race
        // detection below this frame appends to it while it is buried.
        // Entries found asleep when their turn comes are covered by an
        // explored sibling subtree: prune, like the static sleep-set
        // skip.  Every reads-from variant of a candidate is consumed
        // before the cursor advances (asleep is decided once per
        // candidate, at variant 0 — sleeping covers the whole menu, since
        // independent steps preserve variant menus).
        bool Have = false;
        while (Top.NextBt < Top.Backtrack.size()) {
          size_t Cand = Top.Backtrack[Top.NextBt];
          if (Top.BtVariant == 0 && asleep(Top, Top.Ready[Cand])) {
            ++S.PorSkips;
            ++Top.NextBt;
            continue;
          }
          ChildIdx = Cand;
          Variant = Top.BtVariant;
          if (++Top.BtVariant >= variantsOf(Top, Cand)) {
            ++Top.NextBt;
            Top.BtVariant = 0;
          }
          Have = true;
          break;
        }
        if (!Have) {
          Stack.pop_back();
          continue;
        }
      } else {
        if (Top.NextChild >= Top.Ready.size()) {
          Stack.pop_back();
          continue;
        }
        ChildIdx = Top.NextChild;
        // Fairness: one participant may not run more than FairnessBound
        // consecutive steps while someone else is waiting.  Skipped under
        // Por — the filter is linearization-dependent, which breaks the
        // coverage argument (see GenericExploreOptions::Por).  Decided
        // once per candidate, at variant 0.
        if (Top.NextVariant == 0 && Top.Ready.size() > 1 &&
            Top.Ready[ChildIdx] == Top.LastId &&
            Top.Consec >= Opts.FairnessBound) {
          ++Top.NextChild;
          continue;
        }
        Variant = Top.NextVariant;
        if (++Top.NextVariant >= variantsOf(Top, ChildIdx)) {
          ++Top.NextChild;
          Top.NextVariant = 0;
        }
      }
      ThreadId C = Top.Ready[ChildIdx];
      // Trace-invariant divergence bound: a per-participant total is the
      // same in every linearization, so this prunes whole traces and is
      // safe alongside the reduction — PROVIDED the reduction reacts.
      // DPOR's coverage argument assumes every scheduled child subtree is
      // fully explored so the races inside it surface; a child pruned by
      // the cap surfaces nothing, and the reversals it would have
      // demanded die with it (concretely: a spinning acquirer dead-ends
      // at the cap and no race ever schedules the lock holder).  Like
      // the blocked-participant case, collapse the frame to all enabled
      // alternatives; their subtrees re-detect whatever the pruned one
      // hid.
      if (Opts.MaxParticipantSteps != 0 &&
          tallyOf(Top, C) >= Opts.MaxParticipantSteps) {
        // Skip the candidate's remaining variants too — the cap prunes
        // the participant, not one reads-from choice.
        if (PorOn) {
          for (size_t R = 0; R != Top.Ready.size(); ++R)
            addBacktrack(Top, R, S);
          if (Top.BtVariant != 0) {
            ++Top.NextBt;
            Top.BtVariant = 0;
          }
        } else if (Top.NextVariant != 0) {
          ++Top.NextChild;
          Top.NextVariant = 0;
        }
        continue;
      }
      // The final child may take the parent's machine by move: NextChild
      // is already past the end, so the frame can only be popped from here
      // on (donate() skips child-less frames) and its machine is dead
      // weight.  Saves one full machine copy per interior node.  Not
      // under POR: race detection can schedule NEW children on a frame
      // whose cursor looked exhausted, and the machine must survive for
      // them.
      const bool LastChild = !PorOn && Top.NextChild >= Top.Ready.size();
      Frame Child(LastChild ? MachineT(std::move(Top.M)) : MachineT(Top.M),
                  C, C == Top.LastId ? Top.Consec + 1 : 1, Top.Depth + 1);
      if (PorOn) {
        const Footprint &CF = Top.ReadyFoot[ChildIdx];
        Child.StepFoot = CF;
        childSleep(Top, C, CF, Child.Sleep);
        // Added at push (not pop): coverage only needs this subtree to be
        // explored *eventually*, and an abort that leaves it unexplored
        // also reports Complete=false, so nothing unsound is claimed.
        // Once per candidate: the footprint — and hence the sleep and
        // race structure — is shared by all its reads-from variants.
        if (Variant == 0) {
          Top.DoneSibs.push_back(SleepEntry{C, CF});
          // Source-set DPOR race detection: schedule the reversal of
          // every race this step closes with an event already on the
          // path.
          dporRaces(Stack, C, CF, S);
        }
      }
      if (Opts.MaxParticipantSteps != 0) {
        Child.StepTally = Top.StepTally;
        ++Child.StepTally[C];
      }
      if (!stepOn(Child.M, C, Variant)) {
        violate(Child.M, Child.M.error());
        continue;
      }
      if (Opts.CollectCorpus && (Top.Depth & 3) == 0)
        pushCorpus(Child.M.log(), S);
      Stack.push_back(std::move(Child));
      S.MaxStack = std::max(S.MaxStack,
                            static_cast<std::uint64_t>(Stack.size()));
    }
  }

  /// First visit of a node: budget, invariant, terminal, and depth checks.
  /// True when the node has children to iterate.
  bool expand(Frame &F, Shard &S) {
    if (Opts.Cancel && Opts.Cancel->load(std::memory_order_relaxed)) {
      {
        std::lock_guard<std::mutex> L(ResMu);
        Complete = false;
        if (Truncation.empty())
          Truncation = Opts.CancelReason;
      }
      stopAll();
      return false;
    }
    if (Schedules.load(std::memory_order_relaxed) >= Opts.MaxSchedules) {
      {
        std::lock_guard<std::mutex> L(ResMu);
        Complete = false;
        if (Truncation.empty())
          Truncation = "MaxSchedules budget (" +
                       std::to_string(Opts.MaxSchedules) + ") exhausted";
      }
      stopAll();
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
    F.Ready = F.M.schedulable();
    if constexpr (MachineHasFootprint<MachineT>::value) {
      if (PorOn) {
        F.ReadyFoot.reserve(F.Ready.size());
        for (ThreadId C : F.Ready)
          F.ReadyFoot.push_back(F.M.stepFootprint(C));
      }
    }
    if constexpr (MachineHasVariants<MachineT>::value) {
      // One menu query per candidate per node; a budget overflow shows up
      // as a count above the machine's cap and the step itself faults
      // fail-closed, so no clamping happens here.
      F.ReadyVars.reserve(F.Ready.size());
      for (ThreadId C : F.Ready) {
        unsigned V = std::max(1u, F.M.stepVariants(C));
        F.ReadyVars.push_back(V);
        if (V > 1) {
          ++S.RfBranchPoints;
          S.RfVariants += V;
        }
      }
    }
    if (F.Ready.empty()) {
      if (!F.M.allIdle()) {
        violate(F.M, "deadlock: nothing schedulable but work remains");
        return false;
      }
      Schedules.fetch_add(1, std::memory_order_relaxed);
      recordOutcome(F.M, S);
      return false;
    }
    if (F.Depth >= Opts.MaxSteps) {
      violate(F.M, "step bound exceeded (divergence under fair schedules?)");
      return false;
    }
    if (PorOn) {
      // Seed the source set with the first non-sleeping child; every
      // other child waits until race detection proves its order can
      // matter.  All children asleep means the whole node is covered by
      // explored sibling subtrees.
      size_t Seed = 0;
      while (Seed != F.Ready.size() && asleep(F, F.Ready[Seed]))
        ++Seed;
      if (Seed == F.Ready.size()) {
        S.PorSkips += F.Ready.size();
        return false;
      }
      F.Backtrack.push_back(Seed);
    }
    F.Expanded = true;
    return true;
  }

  /// Source-set DPOR race detection for a step of participant \p P with
  /// footprint \p PF taken from Stack.back(): walk the executed path
  /// deepest-first and treat every event e of ANOTHER participant whose
  /// footprint conflicts as a race candidate.  This over-approximates the true races (the hb-adjacent
  /// pairs): a candidate with an intervening dependence chain to the new
  /// step is not reversible, but processing it merely schedules an extra
  /// child, never loses one.  The walk must NOT stop at the deepest
  /// candidate — two events in different threads can both race the same
  /// new step (neither happens-before the other), and stopping early
  /// silently drops the shallower reversal.
  ///
  /// At candidates whose pre-state has P schedulable, raceInsert applies
  /// the source-set rule.  Where P is NOT schedulable (it was blocked,
  /// e.g. on a lock the suffix releases), reversing needs some other
  /// participant first; conservatively schedule every alternative.
  void dporRaces(std::vector<Frame> &Stack, ThreadId P, const Footprint &PF,
                 Shard &S) {
    if (PF.local())
      return;
    for (size_t I = Stack.size(); I-- > 1;) {
      const Frame &Ev = Stack[I];
      if (Ev.LastId == P || !footprintsConflict(Ev.StepFoot, PF))
        continue;
      Frame &Pre = Stack[I - 1];
      size_t PIdx = readyIndex(Pre, P);
      if (PIdx == SIZE_MAX) {
        for (size_t R = 0; R != Pre.Ready.size(); ++R)
          addBacktrack(Pre, R, S);
        continue;
      }
      raceInsert(Stack, I, P, PF, PIdx, S);
    }
  }

  /// The source-set insertion rule (Abdulla et al.) for the race between
  /// the event e entering Stack[EvIdx] and the new step (P, PF).  With
  /// E' = pre(E, e) and v = notdep(e, E)·(P, PF), the reversal is covered
  /// iff some already-scheduled child of E' is an initial of v — a thread
  /// whose first step in v has no dependent predecessor within v can run
  /// first in SOME linearization of the reversal's trace, so exploring it
  /// explores that trace.  When uncovered, an INITIAL of v must be
  /// scheduled; inserting P itself is wrong when P is not an initial
  /// (its first v-step has a dependent predecessor): the P-first subtree
  /// then lies in a different trace class, and sleep sets — sound only on
  /// top of genuine source sets — may prune the reversal everywhere else.
  /// P is preferred when it qualifies; otherwise v's first step's thread
  /// (trivially an initial) is used.  Initials are computed from the
  /// concrete suffix and under-approximated when in doubt, which costs
  /// insertions, never soundness.
  void raceInsert(std::vector<Frame> &Stack, size_t EvIdx, ThreadId P,
                  const Footprint &PF, size_t PIdx, Shard &S) {
    Frame &Pre = Stack[EvIdx - 1];
    const Frame &Ev = Stack[EvIdx];
    // Mark which suffix steps (strictly after e) transitively
    // happen-after e: same participant as e or conflicting with e, or
    // dependent on an earlier marked step.
    const size_t N = Stack.size() - (EvIdx + 1);
    std::vector<char> AfterE(N, 0);
    for (size_t J = 0; J != N; ++J) {
      const Frame &FJ = Stack[EvIdx + 1 + J];
      if (FJ.LastId == Ev.LastId ||
          footprintsConflict(FJ.StepFoot, Ev.StepFoot)) {
        AfterE[J] = 1;
        continue;
      }
      for (size_t K = 0; K != J; ++K) {
        const Frame &FK = Stack[EvIdx + 1 + K];
        if (AfterE[K] && (FK.LastId == FJ.LastId ||
                          footprintsConflict(FK.StepFoot, FJ.StepFoot))) {
          AfterE[J] = 1;
          break;
        }
      }
    }
    // v = notdep(e, E) · (P, PF).
    std::vector<SleepEntry> W;
    for (size_t J = 0; J != N; ++J)
      if (!AfterE[J]) {
        const Frame &FJ = Stack[EvIdx + 1 + J];
        W.push_back(SleepEntry{FJ.LastId, FJ.StepFoot});
      }
    W.push_back(SleepEntry{P, PF});
    // Covered: some scheduled child of E' is an initial of v.
    for (size_t BIdx : Pre.Backtrack)
      if (initialOf(W, Pre.Ready[BIdx]))
        return;
    // Uncovered: schedule an initial — P when it qualifies, else the
    // thread of v's first step (enabled at E' by commutation with e when
    // footprints are honest; fall back to P if the machine disagrees).
    if (initialOf(W, P)) {
      addBacktrack(Pre, PIdx, S);
      return;
    }
    size_t QIdx = readyIndex(Pre, W.front().Tid);
    addBacktrack(Pre, QIdx != SIZE_MAX ? QIdx : PIdx, S);
  }

  /// True when \p Q's first step in \p W exists and has no dependent
  /// (footprint-conflicting) predecessor within W — i.e. Q ∈ I(W).
  static bool initialOf(const std::vector<SleepEntry> &W, ThreadId Q) {
    size_t First = W.size();
    for (size_t J = 0; J != W.size(); ++J)
      if (W[J].Tid == Q) {
        First = J;
        break;
      }
    if (First == W.size())
      return false; // Q takes no step in v: not an initial
    for (size_t K = 0; K != First; ++K)
      if (footprintsConflict(W[K].Foot, W[First].Foot))
        return false;
    return true;
  }

  size_t readyIndex(const Frame &F, ThreadId C) const {
    for (size_t I = 0; I != F.Ready.size(); ++I)
      if (F.Ready[I] == C)
        return I;
    return SIZE_MAX;
  }

  /// Adds Ready index \p Idx to F's backtrack set unless present (the set
  /// keeps consumed entries precisely so this membership test also covers
  /// "already explored").
  void addBacktrack(Frame &F, size_t Idx, Shard &S) {
    for (size_t Have : F.Backtrack)
      if (Have == Idx)
        return;
    F.Backtrack.push_back(Idx);
    ++S.DporBacktracks;
  }

  /// True when participant \p C's next step is asleep at \p F.
  bool asleep(const Frame &F, ThreadId C) const {
    for (const SleepEntry &E : F.Sleep)
      if (E.Tid == C)
        return true;
    return false;
  }

  std::uint64_t tallyOf(const Frame &F, ThreadId C) const {
    auto It = F.StepTally.find(C);
    return It == F.StepTally.end() ? 0 : It->second;
  }

  /// Reads-from choices of Ready entry \p Idx (1 without a weak model).
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

  /// Sleep set of the child reached by stepping \p C with footprint \p CF:
  /// the parent's sleeping entries plus its already-pushed siblings, minus
  /// C itself (it just ran) and minus everything whose footprint conflicts
  /// with CF (the covering interleaving no longer commutes past C's step).
  void childSleep(const Frame &F, ThreadId C, const Footprint &CF,
                  std::vector<SleepEntry> &Out) const {
    for (const std::vector<SleepEntry> *Src : {&F.Sleep, &F.DoneSibs})
      for (const SleepEntry &E : *Src)
        if (E.Tid != C && !footprintsConflict(E.Foot, CF))
          Out.push_back(E);
  }

  void recordOutcome(const MachineT &M, Shard &S) {
    Outcome O;
    O.FinalLog = M.log();
    O.Returns = M.returns();
    if constexpr (MachineHasFootprint<MachineT>::value) {
      // Under POR raw final logs are in bijection with schedules, so the
      // reduction must deduplicate canonical trace forms instead (see
      // GenericExploreOptions::Por).
      if (PorOn)
        O.FinalLog = canonicalizeLog(O.FinalLog, [&M](KindId Kind) {
          return M.eventFootprint(Event(0, Kind));
        });
    }
    if (Opts.OnOutcome) {
      // Callback path: every terminal schedule's outcome goes to the
      // callback, serialized under ResMu (callers keep plain tallies), and
      // only its fingerprint stays in the shard; distinct outcomes are
      // counted at the join.  The corpus still takes each distinct
      // terminal log once (a copy per schedule would crowd the capped
      // buffer), so Dedup holds the outcomes whose logs it took and stops
      // growing once the corpus is full.
      if (Opts.CollectCorpus && S.Corpus.size() < Opts.MaxCorpus &&
          S.Dedup.insert(O))
        S.Corpus.push_back(O.FinalLog);
      std::string V;
      {
        std::lock_guard<std::mutex> L(ResMu);
        V = Opts.OnOutcome(O);
        if (!V.empty() && !Violated) {
          Violated = true;
          Violation = V + "\n  log: " + logToString(M.log());
        }
      }
      (V.empty() ? S.Accepted : S.Rejected)
          .push_back(OutcomeSet::fingerprint(O));
      if (!V.empty())
        stopAll();
      return;
    }
    // Stored path: everything is worker-local, so recording an outcome
    // takes no lock; cross-worker duplicates collapse at the join.
    if (!S.Dedup.insert(O))
      return;
    if (Opts.CollectCorpus && S.Corpus.size() < Opts.MaxCorpus)
      S.Corpus.push_back(O.FinalLog);
    if (S.Outcomes.size() < Opts.MaxStoredOutcomes)
      S.Outcomes.push_back(std::move(O));
    else
      S.StoreTruncated = true; // reported as truncation at the join
  }

  /// Joins the per-worker result shards after the workers exit, in worker
  /// order.  Outcomes flow through a fresh dedup set (each worker
  /// deduplicated only its own stream); the corpus concatenates up to its
  /// cap; any shard-local truncation fails the run closed.  With one
  /// worker this moves the single shard's vectors unchanged, so
  /// sequential runs are bit-identical to the former global recording.
  /// The OnOutcome path counts its fingerprints instead.
  void mergeShardResults(ExploreResult &Res) {
    bool Truncated = false;
    if (Opts.OnOutcome) {
      std::vector<OutcomeSet::Fingerprint> Accepted =
          distinctFingerprints(&Shard::Accepted);
      Res.AcceptedOutcomes = Res.DistinctOutcomes = Accepted.size();
      for (const auto &F : distinctFingerprints(&Shard::Rejected))
        if (!std::binary_search(Accepted.begin(), Accepted.end(), F))
          ++Res.DistinctOutcomes;
    } else {
      OutcomeSet Merged;
      for (Shard &S : Shards) {
        Truncated |= S.StoreTruncated;
        for (Outcome &O : S.Outcomes) {
          if (!Merged.insert(O))
            continue;
          if (Res.Outcomes.size() < Opts.MaxStoredOutcomes)
            Res.Outcomes.push_back(std::move(O));
          else
            Truncated = true;
        }
      }
    }
    for (Shard &S : Shards)
      for (Log &L : S.Corpus) {
        if (Res.Corpus.size() >= Opts.MaxCorpus)
          break;
        Res.Corpus.push_back(std::move(L));
      }
    if (Truncated) {
      Res.Complete = false;
      if (Res.Truncation.empty())
        Res.Truncation = "MaxStoredOutcomes budget (" +
                         std::to_string(Opts.MaxStoredOutcomes) +
                         ") exhausted";
    }
  }

  /// Moves one fingerprint list out of every shard into a single sorted
  /// vector without duplicates, freeing each shard's list as it goes.
  std::vector<OutcomeSet::Fingerprint>
  distinctFingerprints(std::vector<OutcomeSet::Fingerprint> Shard::*List) {
    size_t N = 0;
    for (const Shard &S : Shards)
      N += (S.*List).size();
    std::vector<OutcomeSet::Fingerprint> All;
    All.reserve(N);
    for (Shard &S : Shards) {
      All.insert(All.end(), (S.*List).begin(), (S.*List).end());
      std::vector<OutcomeSet::Fingerprint>().swap(S.*List);
    }
    std::sort(All.begin(), All.end());
    All.erase(std::unique(All.begin(), All.end()), All.end());
    return All;
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

  /// Sampled intermediate logs go straight into the worker's own shard —
  /// the former global buffer serialized every worker on ResMu mid-search.
  void pushCorpus(const Log &L, Shard &S) {
    if (S.Corpus.size() < Opts.MaxCorpus)
      S.Corpus.push_back(L);
  }

  /// Blocks until a frame is available or the search is over; false means
  /// the worker should exit.
  bool pullWork(std::vector<Frame> &Stack) {
    std::unique_lock<std::mutex> L(QMu);
    ++Idle;
    Hungry.store(Idle, std::memory_order_relaxed);
    while (true) {
      if (Finished)
        return false;
      if (!Injector.empty() && !Stop.load(std::memory_order_relaxed)) {
        Stack.push_back(std::move(Injector.front()));
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
  /// gate bounds donation traffic by steals actually taken.  True when
  /// anything was donated.  Never called under POR (see worker()).
  bool donate(std::vector<Frame> &Stack, Shard &S) {
    std::vector<Frame> Moved;
    for (Frame &F : Stack) {
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
      Rest.StepTally = F.StepTally;
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

  const Options &Opts;
  const unsigned Workers;

  /// The reduction is actually on: requested AND the machine declares
  /// footprints.
  const bool PorOn;

  // Work sharing.
  std::mutex QMu;
  std::condition_variable QCv;
  std::deque<Frame> Injector;      ///< guarded by QMu
  unsigned Idle = 0;               ///< guarded by QMu
  bool Finished = false;           ///< guarded by QMu
  std::atomic<unsigned> Hungry{0}; ///< lock-free mirror of Idle
  std::atomic<size_t> InjectorSize{0}; ///< lock-free mirror of the deque

  // Early abort + schedule budget.
  std::atomic<bool> Stop{false};
  std::atomic<std::uint64_t> Schedules{0};

  // Shared result slots (first violation wins).  Outcomes, fingerprints
  // and the corpus live in the per-worker Shards; ResMu also serializes
  // the OnOutcome calls.
  std::mutex ResMu;
  bool Violated = false;  ///< guarded by ResMu
  std::string Violation;  ///< guarded by ResMu
  bool Complete = true;   ///< guarded by ResMu
  std::string Truncation; ///< guarded by ResMu

  std::vector<Shard> Shards;
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
  detail::GenericDfs<MachineT> D(Opts, Workers);
  ExploreResult Res = D.run(Root);
  if (obs::enabled())
    detail::publishExploreMetrics(Res);
  return Res;
}

/// Result of a differential POR-vs-full run (checkPorEquivalence).
struct PorEquivalenceReport {
  bool Ok = false;    ///< both explorations ran to completion, no violation
  bool Match = false; ///< the deduplicated canonical outcome sets agree
  std::string Detail; ///< failure reason / first diverging outcome
  std::uint64_t FullSchedules = 0;
  std::uint64_t PorSchedules = 0;
  std::uint64_t FullStates = 0;
  std::uint64_t PorStates = 0;
  std::uint64_t FullOutcomes = 0; ///< size of the canonicalized full set
  std::uint64_t PorOutcomes = 0;
  std::uint64_t SleepSkips = 0;
  std::uint64_t Backtracks = 0; ///< DPOR backtrack insertions (reduced run)
};

/// Differential soundness check for the partial-order reduction: explores
/// \p Root twice from the same options — once in full (Por off, fairness
/// off, so both runs range over the same trace space) and once reduced —
/// and compares the deduplicated outcome sets after canonicalizing the
/// full run's logs the same way the reduced run does.  A mismatch means a
/// machine's declared footprints under-report a dependence (or a reduction
/// bug); Match=false with the first diverging outcome in Detail.
///
/// Bound divergent workloads with Opts.MaxParticipantSteps/MaxSteps, not
/// FairnessBound (which this check clears on both sides).
template <typename MachineT>
PorEquivalenceReport
checkPorEquivalence(const MachineT &Root,
                    GenericExploreOptions<MachineT> Opts) {
  PorEquivalenceReport R;
  // Same trace space on both sides: the consecutive-run fairness filter is
  // linearization-dependent (POR ignores it), so the full run must not
  // apply it either; divergence is bounded by the trace-invariant knobs.
  Opts.FairnessBound = ~0u;
  Opts.OnOutcome = nullptr;
  Opts.CollectCorpus = false;

  GenericExploreOptions<MachineT> FullOpts = Opts;
  FullOpts.Por = false;
  ExploreResult Full = exploreGeneric(Root, FullOpts);
  R.FullSchedules = Full.SchedulesExplored;
  R.FullStates = Full.StatesExplored;
  if (!Full.Ok) {
    R.Detail = "full exploration violated: " + Full.Violation;
    return R;
  }
  if (!Full.Complete) {
    R.Detail = "full exploration truncated: " + Full.Truncation;
    return R;
  }

  GenericExploreOptions<MachineT> PorOpts = Opts;
  PorOpts.Por = true;
  ExploreResult Por = exploreGeneric(Root, PorOpts);
  R.PorSchedules = Por.SchedulesExplored;
  R.PorStates = Por.StatesExplored;
  R.SleepSkips = Por.PorSleepSkips;
  R.Backtracks = Por.DporBacktracks;
  if (!Por.Ok) {
    R.Detail = "reduced exploration violated: " + Por.Violation;
    return R;
  }
  if (!Por.Complete) {
    R.Detail = "reduced exploration truncated: " + Por.Truncation;
    return R;
  }
  R.Ok = true;

  OutcomeSet PorSet;
  for (const Outcome &O : Por.Outcomes)
    PorSet.insert(O);
  R.PorOutcomes = PorSet.size();

  // Canonicalize the full run's raw linearization logs exactly the way the
  // reduced run recorded its outcomes, then compare both directions.
  R.Match = true;
  OutcomeSet FullSet;
  for (Outcome O : Full.Outcomes) {
    if constexpr (detail::MachineHasFootprint<MachineT>::value) {
      if (Por.PorApplied)
        O.FinalLog = canonicalizeLog(O.FinalLog, [&Root](KindId Kind) {
          return Root.eventFootprint(Event(0, Kind));
        });
    }
    if (!FullSet.insert(O))
      continue; // several linearizations of one trace
    if (R.Match && !PorSet.contains(O)) {
      R.Match = false;
      R.Detail = "outcome reachable in full exploration is missing under "
                 "POR (under-reported footprint?)\n  canonical log: " +
                 logToString(O.FinalLog);
    }
  }
  R.FullOutcomes = FullSet.size();
  if (R.Match)
    for (const Outcome &O : Por.Outcomes)
      if (!FullSet.contains(O)) {
        R.Match = false;
        R.Detail = "outcome recorded under POR does not occur in full "
                   "exploration\n  canonical log: " +
                   logToString(O.FinalLog);
        break;
      }
  return R;
}

/// Options alias for the multicore machine (the common case).
using ExploreOptions = GenericExploreOptions<MultiCoreMachine>;

/// Explores every schedule of the multicore machine described by \p Cfg.
ExploreResult exploreMachine(MachineConfigPtr Cfg,
                             const ExploreOptions &Opts);

/// checkPorEquivalence on the multicore machine described by \p Cfg.
PorEquivalenceReport checkPorEquivalence(MachineConfigPtr Cfg,
                                         ExploreOptions Opts);

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
