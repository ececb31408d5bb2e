//===- core/Strategy.cpp - Game-semantic strategies ------------------------===//

#include "core/Strategy.h"

#include "support/Check.h"

using namespace ccal;

Strategy::~Strategy() = default;

std::optional<StrategyMove> AutomatonStrategy::onScheduled(const Log &L) {
  CCAL_CHECK(!done(), "scheduling a finished strategy");
  std::optional<Transition> T = D(Cur, L);
  if (!T)
    return std::nullopt;
  Cur = T->Next;
  InCritical = T->Move.CriticalAfter;
  return T->Move;
}

std::unique_ptr<Strategy> ccal::makeAtomicCallStrategy(
    ThreadId Tid, std::string Kind, std::vector<std::int64_t> Args,
    std::function<std::optional<std::int64_t>(const Log &)> RetFn) {
  std::string Name = "phi_" + Kind + "[" + std::to_string(Tid) + "]";
  Event E(Tid, KindId(Kind), Args);
  auto D = [E, RetFn](AutomatonStrategy::State S, const Log &L)
      -> std::optional<AutomatonStrategy::Transition> {
    CCAL_CHECK(S == 0, "atomic strategy has a single live state");
    Log Extended = L;
    Extended.push_back(E);
    std::optional<std::int64_t> Ret =
        RetFn ? RetFn(Extended) : std::optional<std::int64_t>(0);
    if (!Ret)
      return std::nullopt; // The replay is stuck: the spec refuses this call.
    AutomatonStrategy::Transition T;
    T.Move.Events.push_back(E);
    T.Move.Return = *Ret;
    T.Next = 1;
    return T;
  };
  return std::make_unique<AutomatonStrategy>(std::move(Name), 0, 1,
                                             std::move(D));
}

std::unique_ptr<Strategy> ccal::makeIdleStrategy(std::string Name) {
  auto D = [](AutomatonStrategy::State, const Log &)
      -> std::optional<AutomatonStrategy::Transition> {
    CCAL_UNREACHABLE("idle strategy never moves");
  };
  return std::make_unique<AutomatonStrategy>(std::move(Name), 0, 0,
                                             std::move(D));
}

namespace {

/// Schedules a vector of strategies in sequence.
class SeqStrategy final : public Strategy {
public:
  SeqStrategy(std::string Name, std::vector<std::unique_ptr<Strategy>> Seq)
      : Name(std::move(Name)), Seq(std::move(Seq)) {}

  std::unique_ptr<Strategy> clone() const override {
    std::vector<std::unique_ptr<Strategy>> Copy;
    Copy.reserve(Seq.size());
    for (const auto &S : Seq)
      Copy.push_back(S->clone());
    auto C = std::make_unique<SeqStrategy>(Name, std::move(Copy));
    C->Idx = Idx;
    return C;
  }

  std::optional<StrategyMove> onScheduled(const Log &L) override {
    skipDone();
    CCAL_CHECK(Idx < Seq.size(), "scheduling a finished strategy sequence");
    std::optional<StrategyMove> M = Seq[Idx]->onScheduled(L);
    skipDone();
    return M;
  }

  bool done() const override {
    for (size_t I = Idx, E = Seq.size(); I != E; ++I)
      if (!Seq[I]->done())
        return false;
    return true;
  }

  bool critical() const override {
    return Idx < Seq.size() && Seq[Idx]->critical();
  }

  std::string describe() const override { return Name; }

private:
  void skipDone() {
    while (Idx < Seq.size() && Seq[Idx]->done())
      ++Idx;
  }

  std::string Name;
  std::vector<std::unique_ptr<Strategy>> Seq;
  size_t Idx = 0;
};

} // namespace

std::unique_ptr<Strategy>
ccal::makeSeqStrategy(std::string Name,
                      std::vector<std::unique_ptr<Strategy>> Seq) {
  return std::make_unique<SeqStrategy>(std::move(Name), std::move(Seq));
}
