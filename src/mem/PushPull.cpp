//===- mem/PushPull.cpp - Push/pull shared-memory model --------------------===//

#include "mem/PushPull.h"

#include "support/Check.h"

using namespace ccal;

void PushPullModel::addLocation(Location Loc) {
  CCAL_CHECK(Loc.Size >= 1, "shared location needs at least one word");
  if (Loc.Init.empty())
    Loc.Init.assign(static_cast<size_t>(Loc.Size), 0);
  CCAL_CHECK(Loc.Init.size() == static_cast<size_t>(Loc.Size),
             "initial contents must match the location size");
  auto [It, Inserted] = Locations.emplace(Loc.Loc, std::move(Loc));
  (void)It;
  CCAL_CHECK(Inserted, "duplicate shared location");
}

Replayer<SharedMemState> PushPullModel::replayer() const {
  SharedMemState Init;
  for (const auto &[Id, Loc] : Locations)
    Init.emplace(Id, CellState{Loc.Init, std::nullopt});

  auto Step = [](SharedMemState &S, const Event &E) {
    if (E.Args.empty())
      return false;
    auto It = S.find(E.Args[0]);
    if (It == S.end())
      return false; // unknown location
    CellState &Cell = It->second;
    if (E.Kind == PullEventKind) {
      // (v, free) -> (v, own c); anything else is a race.
      if (Cell.Owner.has_value())
        return false;
      Cell.Owner = E.Tid;
      return true;
    }
    // push: (_, own c) -> (vals, free); anything else is a race.
    if (!Cell.Owner || *Cell.Owner != E.Tid)
      return false;
    if (E.Args.size() != 1 + Cell.Contents.size())
      return false;
    Cell.Contents.assign(E.Args.begin() + 1, E.Args.end());
    Cell.Owner = std::nullopt;
    return true;
  };
  Replayer<SharedMemState> R(std::move(Init), std::move(Step));
  // Other events do not touch the shared memory.
  R.onlyKinds({PullEventKind, PushEventKind});
  return R;
}

void PushPullModel::installPrims(LayerInterface &L) const {
  FoldPart<SharedMemState> Cells(replayer());
  L.declareFold(Cells);
  std::map<std::int64_t, Location> Locs = Locations;

  // Both primitives read and write the shared-memory cells (pull takes
  // ownership and materializes contents, push publishes and releases):
  // one coarse location for the whole model, which is exact for the
  // common single-cell case.
  Footprint MemFoot = Footprint::of({"pp_mem"}, {"pp_mem"});

  // Fig. 8, sigma_pull: append c.pull(b), fold it, deliver the contents.
  L.addShared(PullEventKind.str(), [Cells, Locs](const PrimCall &Call)
                  -> std::optional<PrimResult> {
    if (Call.Args.size() != 1)
      return std::nullopt;
    auto It = Locs.find(Call.Args[0]);
    if (It == Locs.end())
      return std::nullopt;
    const Location &Loc = It->second;

    Event E(Call.Tid, PullEventKind, {Loc.Loc});
    const SharedMemState *Now = Cells.in(*Call.Fold);
    if (!Now)
      return std::nullopt;
    SharedMemState S = *Now;
    if (!Cells.replayer().step(S, E))
      return std::nullopt; // race: machine gets stuck

    PrimResult Res;
    Res.Events.push_back(std::move(E));
    const CellState &Cell = S.at(Loc.Loc);
    for (std::int32_t I = 0; I != Loc.Size; ++I)
      Res.LocalWrites.emplace_back(Loc.LocalBase + I,
                                   Cell.Contents[static_cast<size_t>(I)]);
    return Res;
  }, MemFoot);

  // Fig. 8, sigma_push: read the local copy, append c.push(b, vals).
  L.addShared(PushEventKind.str(), [Cells, Locs](const PrimCall &Call)
                  -> std::optional<PrimResult> {
    if (Call.Args.size() != 1 || !Call.LocalMem)
      return std::nullopt;
    auto It = Locs.find(Call.Args[0]);
    if (It == Locs.end())
      return std::nullopt;
    const Location &Loc = It->second;

    std::vector<std::int64_t> Args = {Loc.Loc};
    for (std::int32_t I = 0; I != Loc.Size; ++I) {
      size_t Addr = static_cast<size_t>(Loc.LocalBase + I);
      if (Addr >= Call.LocalMem->size())
        return std::nullopt;
      Args.push_back((*Call.LocalMem)[Addr]);
    }
    Event E(Call.Tid, PushEventKind, std::move(Args));
    const SharedMemState *Now = Cells.in(*Call.Fold);
    if (!Now)
      return std::nullopt;
    SharedMemState S = *Now;
    if (!Cells.replayer().step(S, E))
      return std::nullopt; // push without ownership: stuck

    PrimResult Res;
    Res.Events.push_back(std::move(E));
    return Res;
  }, MemFoot);
}
