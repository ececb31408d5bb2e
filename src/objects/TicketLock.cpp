//===- objects/TicketLock.cpp - Certified ticket lock ------------------------===//

#include "objects/TicketLock.h"

#include "machine/CpuLocal.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "support/Text.h"

#include <map>

using namespace ccal;

namespace {
/// The ticket lock's event kinds, interned once.
const KindId FaiT("FAI_t"), GetN("get_n"), IncN("inc_n"), Hold("hold"),
    Acq("acq"), Rel("rel");
} // namespace

Replayer<TicketState> ccal::makeTicketReplayer() {
  // Folds mutual exclusion (hold requires free, inc_n requires holder),
  // the ticket counters, and FIFO acquisition order: the k-th hold must
  // belong to the CPU that fetched the k-th ticket.  The first hold out of
  // order is recorded rather than stuck, so mutual exclusion keeps being
  // checked after it.
  auto Step = [](TicketState &S, const Event &E) {
    if (E.Kind == FaiT) {
      ++S.NextTicket;
      if (S.FifoViolation.empty())
        S.Unserved.push_back(E.Tid);
      return true;
    }
    if (E.Kind == Hold) {
      if (S.Holder.has_value())
        return false; // mutual exclusion violated
      S.Holder = E.Tid;
      if (!S.FifoViolation.empty())
        return true;
      // Holds and releases alternate, so NowServing holds have been
      // served: this hold takes ticket NowServing.
      if (S.Unserved.empty())
        S.FifoViolation = "hold without a fetched ticket";
      else if (S.Unserved.front() != E.Tid)
        S.FifoViolation = strFormat("FIFO violated: ticket %lld belongs to "
                                    "CPU %u but CPU %u acquired",
                                    static_cast<long long>(S.NowServing),
                                    S.Unserved.front(), E.Tid);
      else
        S.Unserved.erase(S.Unserved.begin());
      return true;
    }
    if (E.Kind == IncN) {
      if (!S.Holder || *S.Holder != E.Tid)
        return false; // release by non-holder
      ++S.NowServing;
      S.Holder.reset();
    }
    return true;
  };
  Replayer<TicketState> R(TicketState{}, std::move(Step));
  R.onlyKinds({FaiT, Hold, IncN});
  return R;
}

namespace {

/// The ticket part of L0's fold, shared by every ticket layer.
const FoldPart<TicketState> &ticketFold() {
  static const FoldPart<TicketState> Part(makeTicketReplayer());
  return Part;
}

/// The invariant's verdict on a ticket state (nullptr: the replay is
/// stuck).
std::string ticketVerdict(const TicketState *S) {
  if (!S)
    return "ticket replay stuck: mutual exclusion or release protocol "
           "violated";
  return S->FifoViolation;
}

} // namespace

std::string ccal::checkTicketFifo(const Log &L) {
  std::optional<TicketState> S = ticketFold().replayer().replay(L);
  return ticketVerdict(S ? &*S : nullptr);
}

TicketLockLayers ccal::makeTicketLockLayers() {
  TicketLockLayers Out;

  // --- L0: the x86 atomic primitives (Fig. 3's "Methods provided by L0").
  // Footprints over the abstract ticket-lock state: FAI_t owns the ticket
  // counter; get_n reads the now-serving counter that inc_n bumps; hold
  // additionally reads the ticket counter because the FIFO invariant
  // (checkTicketFifo) is sensitive to the FAI_t/hold order.  The
  // primitives read only per-kind counts; L0's fold declares the ticket
  // replay for the invariant (ticketMutexInvariant).
  auto L0 = makeInterface("L0");
  L0->declareFold(ticketFold());
  L0->addShared("FAI_t", makeFetchIncPrim("FAI_t"),
                Footprint::of({"tkt.next"}, {"tkt.next"}));
  L0->addShared("get_n", makeReadCounterPrim("get_n", "inc_n"),
                Footprint::of({"tkt.serving"}, {}));
  L0->addShared("inc_n", makeEventPrim("inc_n"),
                Footprint::of({"tkt.holder"},
                              {"tkt.serving", "tkt.holder"}));
  L0->addShared("hold", makeEventPrim("hold"),
                Footprint::of({"tkt.next", "tkt.holder"}, {"tkt.holder"}));
  // Pass-through critical-section work: f and g return how many times each
  // has run before (a per-kind count of the fold), so client return values
  // are schedule-sensitive and the refinement compares them meaningfully.
  L0->addShared("f", makeFetchIncPrim("f"), Footprint::of({"f"}, {"f"}));
  L0->addShared("g", makeFetchIncPrim("g"), Footprint::of({"g"}, {"g"}));
  Out.L0 = L0;

  // --- M1: Fig. 3's module, verbatim ClightX.
  Out.M1 = parseModuleOrDie("M1_ticket", R"(
    extern int FAI_t();
    extern int get_n();
    extern void inc_n();
    extern void hold();

    void acq() {
      int my_t = FAI_t();
      while (get_n() != my_t) {}
      hold();
    }

    void rel() { inc_n(); }
  )");
  typeCheckOrDie(Out.M1);

  // --- L1: the atomic interface (blocking acq, protocol-checked rel).
  auto L1 = makeInterface("L1");
  addAtomicLock(*L1, "acq", "rel");
  L1->addShared("f", makeFetchIncPrim("f"), Footprint::of({"f"}, {"f"}));
  L1->addShared("g", makeFetchIncPrim("g"), Footprint::of({"g"}, {"g"}));
  // Rely/guarantee conditions (§2): every participant guarantees that it
  // releases a held lock, i.e. the log never shows it acquiring twice
  // without a release in between — expressed as the abstract lock replay
  // not getting stuck.
  {
    Replayer<AbstractLockState> AR = makeAbstractLockReplayer("acq", "rel");
    LogInvariant LockOk{"lock-protocol-respected", [AR](const Log &L) {
                          return AR.wellFormed(L);
                        }};
    for (ThreadId Tid = 0; Tid < 8; ++Tid) {
      L1->rg().Rely.emplace(Tid, LockOk);
      L1->rg().Guar.emplace(Tid, LockOk);
    }
  }
  Out.L1 = L1;

  // --- R1 (§2): map i.hold to i.acq, i.inc_n to i.rel, and the other
  // lock-related events to empty ones.
  Out.R1 = EventMap("R1", [](const Event &E) -> std::optional<Event> {
    if (E.Kind == Hold)
      return Event(E.Tid, Acq);
    if (E.Kind == IncN)
      return Event(E.Tid, Rel);
    if (E.Kind == FaiT || E.Kind == GetN)
      return std::nullopt;
    return E;
  });
  return Out;
}

TicketLockLayers ccal::makeTicketLockLayersRa(bool BrokenGrab) {
  TicketLockLayers Out = makeTicketLockLayers();

  // Same primitives, ordering-annotated footprints mirroring the runtime
  // lock (RtTicketLock.h): Next.fetch_add(acq_rel), NowServing spin
  // load(acquire), NowServing.fetch_add(acq_rel).
  auto L0 = makeInterface(BrokenGrab ? "L0ra_broken" : "L0ra");
  L0->declareFold(Out.L0->fold());
  Footprint Grab = Footprint::of({"tkt.next"}, {"tkt.next"})
                       .withOrders(MemOrder::AcqRel, MemOrder::AcqRel);
  if (BrokenGrab)
    // rt::BrokenTicketLock's seeded bug: the grab is a separate relaxed
    // load and relaxed store, so another CPU's increment can land in
    // between — or, equivalently here, the load may read a stale ticket.
    Grab = Footprint::of({"tkt.next"}, {"tkt.next"})
               .withOrders(MemOrder::Relaxed, MemOrder::Relaxed)
               .nonAtomic();
  L0->addShared("FAI_t", makeFetchIncPrim("FAI_t"), Grab);
  // The spin read: acquire (joins the releaser's view, which is what
  // collapses the f/g reads-from menus inside the critical section) and
  // memory-fair (the await eventually sees the latest now-serving).
  L0->addShared("get_n", makeReadCounterPrim("get_n", "inc_n"),
                Footprint::of({"tkt.serving"}, {})
                    .withOrders(MemOrder::Acquire, MemOrder::SeqCst)
                    .fairRead());
  L0->addShared("inc_n", makeEventPrim("inc_n"),
                Footprint::of({"tkt.holder"}, {"tkt.serving", "tkt.holder"})
                    .withOrders(MemOrder::AcqRel, MemOrder::AcqRel));
  // hold is ghost bookkeeping (the linearization-point announcement); its
  // tkt.next read exists for invariant order-sensitivity, not for a real
  // shared load, so it is relaxed and memory-fair rather than enumerable.
  L0->addShared("hold", makeEventPrim("hold"),
                Footprint::of({"tkt.next", "tkt.holder"}, {"tkt.holder"})
                    .withOrders(MemOrder::Relaxed, MemOrder::Relaxed)
                    .fairRead());
  // The critical-section counters are deliberately *unordered*: plain
  // non-atomic relaxed accesses whose consistency is the lock's job.  A
  // correctly synchronized lock makes their reads-from menus collapse to
  // the latest write (via the release/acquire chain); a broken lock lets
  // exploration pick stale values and the refinement refutes.
  L0->addShared("f", makeFetchIncPrim("f"),
                Footprint::of({"f"}, {"f"})
                    .withOrders(MemOrder::Relaxed, MemOrder::Relaxed)
                    .nonAtomic());
  L0->addShared("g", makeFetchIncPrim("g"),
                Footprint::of({"g"}, {"g"})
                    .withOrders(MemOrder::Relaxed, MemOrder::Relaxed)
                    .nonAtomic());
  Out.L0 = L0;
  return Out;
}

ClightModule ccal::makeTicketClient() {
  ClightModule Client = parseModuleOrDie("P_ticket_client", R"(
    extern void acq();
    extern void rel();
    extern int f();
    extern int g();

    int t_main() {
      acq();
      int a = f();
      int b = g();
      rel();
      return a * 10 + b;
    }
  )");
  typeCheckOrDie(Client);
  return Client;
}

std::string ccal::ticketMutexInvariant(const MultiCoreMachine &M) {
  if (!ticketFold().declaredIn(M.fold()))
    return "the machine's layer declares no ticket fold";
  return ticketVerdict(ticketFold().in(M.fold()));
}

StarvationReport
ccal::checkTicketStarvationFreedom(unsigned NumCpus,
                                   unsigned FairnessBound) {
  ObjectHarness H =
      makeLockHarness("ticket_starvation", makeTicketLockLayers(), NumCpus,
                      /*Rounds=*/1, ticketMutexInvariant, "ticket.mutex");

  StarvationReport Report;
  // n: events a holder emits from hold to inc_n inclusive (hold, f, g,
  // inc_n) plus its pre-acquisition FAI/get_n traffic; 6 is a safe
  // per-cycle cap for this client.
  const std::uint64_t N = 6;
  Report.Bound = N * FairnessBound * NumCpus;

  GenericExploreOptions<MultiCoreMachine> Opts;
  Opts.FairnessBound = FairnessBound;
  Opts.MaxSteps = 2048;
  Opts.Invariant = ticketMutexInvariant;
  Opts.InvariantName = "ticket.mutex";
  Opts.OnOutcome = [&Report](const Outcome &O) -> std::string {
    // Wait of each CPU: #events strictly between its FAI_t and its hold.
    std::map<ThreadId, size_t> FaiAt;
    for (size_t I = 0; I != O.FinalLog.size(); ++I) {
      const Event &E = O.FinalLog[I];
      if (E.Kind == FaiT)
        FaiAt[E.Tid] = I;
      else if (E.Kind == Hold) {
        auto It = FaiAt.find(E.Tid);
        if (It == FaiAt.end())
          return "hold without a ticket";
        Report.WorstWait =
            std::max(Report.WorstWait,
                     static_cast<std::uint64_t>(I - It->second - 1));
      }
    }
    return "";
  };
  ExploreResult Res = exploreMachine(H.implConfig(), Opts);
  Report.SchedulesExplored = Res.SchedulesExplored;
  Report.Ok = Res.Ok;
  if (!Res.Ok)
    Report.Violation = Res.Violation;
  Report.WithinBound = Report.WorstWait <= Report.Bound;
  return Report;
}

ObjectHarness ccal::makeLockHarness(
    std::string ObjectName, const LockLayers &Layers, unsigned NumCpus,
    unsigned Rounds, std::string (*Invariant)(const MultiCoreMachine &),
    std::string InvariantName, MemoryModel ImplModel) {
  auto M1 = std::make_shared<ClightModule>(cloneModule(Layers.M1));
  auto Client = std::make_shared<ClightModule>(makeTicketClient());

  ObjectHarness H;
  H.Owned = {M1, Client};
  H.ObjectName = std::move(ObjectName);
  H.Underlay = Layers.L0;
  H.Modules = {M1.get()};
  H.Overlay = Layers.L1;
  H.R = Layers.R1;
  H.Client = Client.get();
  for (unsigned C = 1; C <= NumCpus; ++C)
    H.Work.emplace(C, std::vector<CpuWorkItem>(Rounds, {"t_main", {}}));
  H.ImplOpts.FairnessBound = 2;
  H.ImplOpts.MaxSteps = 512;
  H.ImplOpts.Invariant = Invariant;
  H.ImplOpts.InvariantName = std::move(InvariantName);
  // The atomic spec never spins; no fairness pruning on the spec side.
  H.SpecOpts.FairnessBound = 1u << 20;
  H.SpecOpts.MaxSteps = 512;
  H.ImplModel = ImplModel;
  return H;
}

ObjectHarness ccal::makeTicketLockHarness(unsigned NumCpus,
                                          unsigned Rounds) {
  return makeLockHarness("ticket_lock", makeTicketLockLayers(), NumCpus,
                         Rounds, ticketMutexInvariant, "ticket.mutex");
}

HarnessOutcome ccal::certifyTicketLock(unsigned NumCpus, unsigned Rounds) {
  return runObjectHarness(makeTicketLockHarness(NumCpus, Rounds));
}

ObjectHarness ccal::makeTicketLockHarnessRa(unsigned NumCpus,
                                            unsigned Rounds,
                                            bool BrokenGrab) {
  return makeLockHarness(BrokenGrab ? "ticket_lock_ra_broken"
                                    : "ticket_lock_ra",
                         makeTicketLockLayersRa(BrokenGrab), NumCpus, Rounds,
                         ticketMutexInvariant, "ticket.mutex", MemoryModel::Ra);
}

HarnessOutcome ccal::certifyTicketLockRa(unsigned NumCpus, unsigned Rounds,
                                         bool BrokenGrab) {
  return runObjectHarness(makeTicketLockHarnessRa(NumCpus, Rounds,
                                                  BrokenGrab));
}
