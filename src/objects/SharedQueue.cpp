//===- objects/SharedQueue.cpp - Certified shared queue ----------------------===//

#include "objects/SharedQueue.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "machine/CpuLocal.h"
#include "support/Check.h"
#include "support/Text.h"

using namespace ccal;

namespace {
/// The shared queue's event kinds, interned once.
const KindId EnQ("enQ"), DeQ("deQ"), EnqDone("enq_done"), DeqDone("deq_done");
} // namespace

Replayer<AbstractSharedQueue> ccal::makeSharedQueueReplayer() {
  auto Step = [](AbstractSharedQueue &S, const Event &E) {
    if (E.Kind == EnQ) {
      if (E.Args.size() != 1)
        return false;
      if (S.Items.size() < SharedQueueCap)
        S.Items.push_back(E.Args[0]);
      return true;
    }
    if (E.Kind == DeQ && !S.Items.empty())
      S.Items.erase(S.Items.begin());
    return true;
  };
  Replayer<AbstractSharedQueue> R(AbstractSharedQueue{}, std::move(Step));
  R.onlyKinds({EnQ, DeQ});
  return R;
}

static ClightModule makeSharedQueueModule() {
  ClightModule M = parseModuleOrDie("M_shared_queue", R"(
    extern void acq();
    extern void rel();
    extern void pull(int b);
    extern void push(int b);
    extern void deq_done(int r);
    extern void enq_done(int v);

    // CPU-local copy of the shared queue cell (materialized by pull,
    // published by push).
    int sq_data[8];
    int sq_len;

    int deQ() {
      acq();
      pull(0);
      int r = -1;
      if (sq_len > 0) {
        r = sq_data[0];
        int i = 0;
        while (i < sq_len - 1) {
          sq_data[i] = sq_data[i + 1];
          i = i + 1;
        }
        sq_len = sq_len - 1;
      }
      deq_done(r);
      push(0);
      rel();
      return r;
    }

    void enQ(int v) {
      acq();
      pull(0);
      if (sq_len < 8) {
        sq_data[sq_len] = v;
        sq_len = sq_len + 1;
      }
      enq_done(v);
      push(0);
      rel();
    }
  )");
  typeCheckOrDie(M);
  return M;
}

static ClightModule makeSharedQueueClient() {
  ClightModule M = parseModuleOrDie("P_shared_queue_client", R"(
    extern int deQ();
    extern void enQ(int v);

    int produce(int v) {
      enQ(v);
      return v;
    }

    int consume() { return deQ(); }
  )");
  typeCheckOrDie(M);
  return M;
}

SharedQueueSetup ccal::makeSharedQueueSetup(unsigned Producers,
                                            unsigned Consumers,
                                            unsigned Rounds) {
  SharedQueueSetup Out;
  Out.Module = makeSharedQueueModule();
  Out.Client = makeSharedQueueClient();

  // Link the implementation first: the push/pull cell needs the linked
  // addresses of the CPU-local copy.
  AsmProgramPtr ImplProg =
      compileAndLink("shared_queue.impl.lasm", {&Out.Client, &Out.Module});

  PushPullModel Mem;
  {
    PushPullModel::Location Cell;
    Cell.Loc = 0;
    Cell.LocalBase = ImplProg->globalAddr("sq_data");
    Cell.Size = SharedQueueCap + 1; // sq_data[8] then sq_len
    CCAL_CHECK(ImplProg->globalAddr("sq_len") ==
                   Cell.LocalBase + SharedQueueCap,
               "sq_len must follow sq_data in the linked layout");
    Mem.addLocation(Cell);
  }

  // Underlay: the certified lock's atomic interface, the push/pull
  // primitives, and the ghost commit markers.
  auto Under = makeInterface("L1_lock_pp");
  Out.Lock = addAtomicLock(*Under, "acq", "rel");
  Mem.installPrims(*Under);
  // The commit markers ARE the queue operations after R, so their mutual
  // order is observable and they must never commute with one another.
  Under->addShared("deq_done", makeEventPrim("deq_done"),
                   Footprint::of({"sq"}, {"sq"}));
  Under->addShared("enq_done", makeEventPrim("enq_done"),
                   Footprint::of({"sq"}, {"sq"}));
  Out.Underlay = Under;

  // Overlay: atomic enQ/deQ over the abstract queue part of its fold.
  FoldPart<AbstractSharedQueue> Queue(makeSharedQueueReplayer());
  auto Over = makeInterface("Lq");
  Over->declareFold(Queue);
  addAtomicMethod(*Over, "deQ",
                  [Queue](const PrimCall &Call) -> AtomicOutcome {
                    const AbstractSharedQueue *S = Queue.in(*Call.Fold);
                    if (!S)
                      return AtomicOutcome::stuck();
                    return AtomicOutcome::ok(
                        S->Items.empty() ? -1 : S->Items.front());
                  },
                  Footprint::of({"sq"}, {"sq"}));
  addAtomicMethod(*Over, "enQ",
                  [Queue](const PrimCall &Call) -> AtomicOutcome {
                    if (Call.Args.size() != 1 || !Queue.in(*Call.Fold))
                      return AtomicOutcome::stuck();
                    return AtomicOutcome::ok(0);
                  },
                  Footprint::of({"sq"}, {"sq"}));
  Out.Overlay = Over;

  // R: commit markers become the atomic events; lock and memory-model
  // events are internal.
  Out.R = EventMap("Rq", [](const Event &E) -> std::optional<Event> {
    if (E.Kind == DeqDone)
      return Event(E.Tid, DeQ);
    if (E.Kind == EnqDone)
      return Event(E.Tid, EnQ, E.Args);
    return std::nullopt;
  });

  // Workloads: producers enqueue distinct values, consumers dequeue.
  std::map<ThreadId, std::vector<CpuWorkItem>> Work;
  ThreadId NextCpu = 1;
  for (unsigned P = 0; P != Producers; ++P, ++NextCpu) {
    std::vector<CpuWorkItem> Items;
    for (unsigned I = 0; I != Rounds; ++I)
      Items.push_back(
          {"produce", {static_cast<std::int64_t>(NextCpu * 100 + I)}});
    Work.emplace(NextCpu, std::move(Items));
  }
  for (unsigned C = 0; C != Consumers; ++C, ++NextCpu) {
    std::vector<CpuWorkItem> Items;
    for (unsigned I = 0; I != Rounds; ++I)
      Items.push_back({"consume", {}});
    Work.emplace(NextCpu, std::move(Items));
  }

  auto ImplCfg = std::make_shared<MachineConfig>();
  ImplCfg->Name = "shared_queue.impl";
  ImplCfg->Layer = Out.Underlay;
  ImplCfg->Program = ImplProg;
  ImplCfg->Work = Work;
  Out.ImplConfig = ImplCfg;

  auto SpecCfg = std::make_shared<MachineConfig>();
  SpecCfg->Name = "shared_queue.spec";
  SpecCfg->Layer = Out.Overlay;
  SpecCfg->Program = compileAndLink("shared_queue.spec.lasm", {&Out.Client});
  SpecCfg->Work = Work;
  Out.SpecConfig = SpecCfg;
  return Out;
}

HarnessOutcome ccal::certifySharedQueue(unsigned Producers,
                                        unsigned Consumers,
                                        unsigned Rounds) {
  SharedQueueSetup Setup =
      makeSharedQueueSetup(Producers, Consumers, Rounds);

  ExploreOptions ImplOpts;
  ImplOpts.FairnessBound = 4;
  ImplOpts.MaxSteps = 512;
  // Safety invariant: the lock protocol must stay well formed along every
  // interleaving (a stuck push/pull already faults the machine).  The
  // lock's part of the fold is empty once its replay got stuck.
  ImplOpts.Invariant = [Lock = *Setup.Lock](const MultiCoreMachine &M)
      -> std::string {
    return Lock.in(M.fold()) ? "" : "lock protocol violated";
  };
  ImplOpts.InvariantName = "shared_queue.lock-protocol";
  ExploreOptions SpecOpts;
  SpecOpts.FairnessBound = 1u << 20;
  SpecOpts.MaxSteps = 512;

  HarnessOutcome Out;
  Out.Report = checkContextualRefinement(Setup.ImplConfig, Setup.SpecConfig,
                                         Setup.R, ImplOpts, SpecOpts);
  std::vector<ThreadId> Focus;
  for (const auto &[Tid, Items] : Setup.ImplConfig->Work) {
    (void)Items;
    Focus.push_back(Tid);
  }
  CertPtr Cert = makeMachineCertificate(
      "LogLift", CertifiedLayer::atFocus(Setup.Underlay->name(), Focus),
      "shared_queue", CertifiedLayer::atFocus(Setup.Overlay->name(), Focus),
      Setup.R.name(), Out.Report);
  if (Out.Report.Holds)
    Out.Layer = calculus::fromCertificate(Setup.Underlay, "shared_queue",
                                          Setup.Overlay, Focus,
                                          Setup.R.name(), Cert);
  else
    Out.Layer.Cert = Cert;
  Out.ImplLoC = moduleLoC(Setup.Module);
  Out.SpecPrimCount = Setup.Overlay->primNames().size();
  return Out;
}
