//===- core/Simulation.cpp - Strategy simulation (Def 2.1) -----------------===//

#include "core/Simulation.h"

#include "cert/CertStore.h"
#include "support/Check.h"
#include "support/Text.h"

using namespace ccal;

namespace {

const char SimCheckerVersion[] = "sim-v1";

JsonValue simToPayload(const SimReport &R) {
  JsonValue V;
  V.K = JsonValue::Kind::Object;
  V.Fields["holds"] = jsonBool(R.Holds);
  V.Fields["complete"] = jsonBool(R.Complete);
  V.Fields["runs"] = jsonUInt(R.Runs);
  V.Fields["moves"] = jsonUInt(R.Moves);
  V.Fields["obligations"] = jsonUInt(R.Obligations);
  V.Fields["counterexample"] = jsonStr(R.Counterexample);
  return V;
}

bool simFromPayload(const JsonValue &V, SimReport &R) {
  std::string Error;
  return cert::getBool(V, "holds", R.Holds, Error) &&
         cert::getBool(V, "complete", R.Complete, Error) &&
         cert::getU64(V, "runs", R.Runs, Error) &&
         cert::getU64(V, "moves", R.Moves, Error) &&
         cert::getU64(V, "obligations", R.Obligations, Error) &&
         cert::getStr(V, "counterexample", R.Counterexample, Error);
}

} // namespace

EventMap EventMap::identity() {
  return EventMap("id", [](const Event &E) { return E; });
}

EventMap EventMap::compose(const EventMap &R, const EventMap &S) {
  auto FR = R.Fn, FS = S.Fn;
  std::string Name =
      R.name() == "id" ? S.name()
                       : (S.name() == "id" ? R.name()
                                           : R.name() + " o " + S.name());
  return EventMap(std::move(Name),
                  [FR, FS](const Event &E) -> std::optional<Event> {
                    std::optional<Event> Mid = FR(E);
                    if (!Mid)
                      return std::nullopt;
                    return FS(*Mid);
                  });
}

Log EventMap::apply(const Log &L) const {
  Log Out;
  for (const Event &E : L)
    if (std::optional<Event> M = map(E))
      Out.push_back(std::move(*M));
  return Out;
}

namespace {

/// DFS worker for the simulation search.
class SimSearch {
public:
  SimSearch(const EventMap &R, const SimOptions &Opts, SimReport &Report)
      : R(R), Opts(Opts), Report(Report) {}

  /// One branch state.  Everything is owned so branches are independent.
  struct Node {
    std::unique_ptr<Strategy> Impl;
    std::unique_ptr<Strategy> Spec;
    std::unique_ptr<EnvModel> Env;
    Log ImplLog;
    Log SpecLog;
    unsigned Moves = 0;
  };

  static Node cloneNode(const Node &N) {
    Node C;
    C.Impl = N.Impl->clone();
    C.Spec = N.Spec->clone();
    C.Env = N.Env->clone();
    C.ImplLog = N.ImplLog;
    C.SpecLog = N.SpecLog;
    C.Moves = N.Moves;
    return C;
  }

  bool explore(Node N) {
    if (Report.Runs >= Opts.MaxRuns) {
      Report.Complete = false;
      fail(N, "run budget exhausted (MaxRuns) before exploration completed");
      return false;
    }

    if (N.Impl->done()) {
      if (!N.Spec->done()) {
        fail(N, "implementation finished but specification has moves left");
        return false;
      }
      ++Report.Runs;
      return true;
    }

    if (N.Moves >= Opts.MaxMoves) {
      fail(N, "move bound exceeded: divergence under a valid environment");
      return false;
    }

    if (N.Impl->critical())
      return implMove(std::move(N));

    // Query point: branch over every environment response (`?E`).
    std::vector<EnvChoice> Choices = N.Env->choices(N.ImplLog);
    if (Choices.empty()) {
      fail(N, "environment exhausted (scripted env too short?)");
      return false;
    }
    for (size_t I = 0, E = Choices.size(); I != E; ++I) {
      Node C = cloneNode(N);
      C.Env->advance(I, C.ImplLog);
      for (const Event &Ev : Choices[I].Events) {
        C.ImplLog.push_back(Ev);
        if (std::optional<Event> M = R.map(Ev))
          C.SpecLog.push_back(std::move(*M));
      }
      bool Ok = Choices[I].ReturnsControl ? implMove(std::move(C))
                                          : explore(std::move(C));
      if (!Ok)
        return false;
    }
    return true;
  }

  bool implMove(Node N) {
    std::optional<StrategyMove> M = N.Impl->onScheduled(N.ImplLog);
    if (!M) {
      fail(N, "implementation strategy got stuck");
      return false;
    }
    ++Report.Moves;
    ++N.Moves;
    logAppendAll(N.ImplLog, M->Events);

    Log Mapped;
    for (const Event &Ev : M->Events)
      if (std::optional<Event> ME = R.map(Ev))
        Mapped.push_back(std::move(*ME));

    if (!Mapped.empty()) {
      if (N.Spec->done()) {
        fail(N, "specification already finished but implementation emitted " +
                    logToString(Mapped));
        return false;
      }
      std::optional<StrategyMove> SM = N.Spec->onScheduled(N.SpecLog);
      if (!SM) {
        fail(N, "specification strategy got stuck on " + logToString(Mapped));
        return false;
      }
      if (SM->Events != Mapped) {
        fail(N, "event mismatch: spec produced " + logToString(SM->Events) +
                    " but R maps implementation move to " +
                    logToString(Mapped));
        return false;
      }
      logAppendAll(N.SpecLog, SM->Events);
      if (M->Return && SM->Return && *M->Return != *SM->Return) {
        fail(N, strFormat("return mismatch: impl %lld vs spec %lld",
                          static_cast<long long>(*M->Return),
                          static_cast<long long>(*SM->Return)));
        return false;
      }
      ++Report.Obligations;
    }
    return explore(std::move(N));
  }

private:
  void fail(const Node &N, const std::string &Why) {
    if (!Report.Counterexample.empty())
      return;
    Report.Counterexample = Why + "\n  impl log: " + logToString(N.ImplLog) +
                            "\n  spec log: " + logToString(N.SpecLog);
  }

  const EventMap &R;
  const SimOptions &Opts;
  SimReport &Report;
};

} // namespace

namespace {

SimReport checkStrategySimulationImpl(const Strategy &Impl,
                                      const Strategy &Spec,
                                      const EventMap &R, const EnvModel &Env,
                                      const SimOptions &Opts) {
  SimReport Report;
  SimSearch Search(R, Opts, Report);
  SimSearch::Node Root;
  Root.Impl = Impl.clone();
  Root.Spec = Spec.clone();
  Root.Env = Env.clone();
  Report.Holds = Search.explore(std::move(Root));
  return Report;
}

} // namespace

SimReport ccal::checkStrategySimulation(const Strategy &Impl,
                                        const Strategy &Spec,
                                        const EventMap &R,
                                        const EnvModel &Env,
                                        const SimOptions &Opts) {
  // Load-or-recheck front-end: cacheable only when the caller named the
  // (opaque) environment model via SimOptions::EnvKey.
  cert::CertStore *Store = cert::store();
  if (!Store || Opts.EnvKey.empty())
    return checkStrategySimulationImpl(Impl, Spec, R, Env, Opts);

  cert::CertKey Key;
  Key.Checker = "sim";
  Key.Version = SimCheckerVersion;
  Key.Desc =
      Impl.describe() + " <= " + Spec.describe() + " via " + R.name();
  Hasher H;
  H.str(Impl.describe())
      .str(Spec.describe())
      .str(R.name())
      .str(Opts.EnvKey)
      .u64(Opts.MaxMoves)
      .u64(Opts.MaxRuns);
  Key.Hash = H.value();

  SimReport Report;
  Store->getOrCheck(
      Key,
      [&](const cert::CertStore::Entry &E) {
        return simFromPayload(E.Payload, Report);
      },
      [&] {
        Report = checkStrategySimulationImpl(Impl, Spec, R, Env, Opts);
        cert::CertStore::Entry Out;
        Out.Cert = makeFunCertificate(Impl.describe(), "(strategy)",
                                      Spec.describe(), R, Report);
        Out.Payload = simToPayload(Report);
        return Out;
      });
  return Report;
}

CertPtr ccal::makeFunCertificate(const std::string &Underlay,
                                 const std::string &Module,
                                 const std::string &Overlay,
                                 const EventMap &R, const SimReport &Report) {
  auto C = std::make_shared<RefinementCertificate>();
  C->Rule = "Fun";
  C->Underlay = Underlay;
  C->Module = Module;
  C->Overlay = Overlay;
  C->Relation = R.name();
  C->CoverageComplete = Report.Complete;
  C->Coverage =
      Report.Complete ? "exhaustive" : "run budget (MaxRuns) exhausted";
  C->Valid = Report.Holds && C->CoverageComplete;
  C->Obligations = Report.Obligations;
  C->Runs = Report.Runs;
  C->Moves = Report.Moves;
  if (!Report.Holds)
    C->Notes.push_back(Report.Counterexample);
  return C;
}
