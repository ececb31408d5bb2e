//===- threads/Ipc.cpp - Message-passing IPC -----------------------------------===//

#include "threads/Ipc.h"

#include "compcertx/Linker.h"
#include "lang/Parser.h"
#include "lang/TypeCheck.h"
#include "threads/Sched.h"
#include "support/Text.h"

using namespace ccal;

ClightModule ccal::makeIpcChannelModule() {
  ClightModule M = parseModuleOrDie("M_ipc_channel", R"(
    extern void acq_q();
    extern void rel_q();
    extern void cv_wait(int q);
    extern void cv_signal(int q);

    int ring[2];
    int r_head = 0;
    int r_tail = 0;
    int r_count = 0;

    void send(int v) {
      acq_q();
      while (r_count == 2) { cv_wait(0); }  // 0: not-full
      ring[r_tail] = v;
      r_tail = (r_tail + 1) % 2;
      r_count = r_count + 1;
      cv_signal(1);                          // 1: not-empty
      rel_q();
    }

    int recv() {
      acq_q();
      while (r_count == 0) { cv_wait(1); }
      int v = ring[r_head];
      r_head = (r_head + 1) % 2;
      r_count = r_count - 1;
      cv_signal(0);
      rel_q();
      return v;
    }
  )");
  typeCheckOrDie(M);
  return M;
}

MonitorCheck ccal::checkIpcChannel(unsigned Items) {
  std::map<ThreadId, ThreadId> CpuOf = {{0, 0}, {1, 0}};

  ClightModule Channel = makeIpcChannelModule();
  ClightModule Cv = makeCondVarModule();
  ClightModule Client = parseModuleOrDie("P_ipc_client", R"(
    extern void send(int v);
    extern int recv();
    extern void done(int v);

    int t_sender(int n) {
      int i = 0;
      while (i < n) {
        send(7 + i);
        i = i + 1;
      }
      return 0;
    }

    int t_receiver(int n) {
      int acc = 0;
      int i = 0;
      while (i < n) {
        acc = acc * 100 + recv();
        i = i + 1;
      }
      done(acc);
      return acc;
    }
  )");
  typeCheckOrDie(Client);

  auto Cfg = std::make_shared<ThreadedConfig>();
  Cfg->Name = "ipc";
  Cfg->Sched.emplace(makeHighSchedReplayer(CpuOf));
  Cfg->Layer = makeMonitorLayer(*Cfg->Sched);
  Cfg->Program = compileAndLink("ipc.lasm", {&Client, &Channel, &Cv});
  Cfg->Threads.push_back(
      {0, 0, {{"t_receiver", {static_cast<std::int64_t>(Items)}}}});
  Cfg->Threads.push_back(
      {1, 0, {{"t_sender", {static_cast<std::int64_t>(Items)}}}});

  ThreadedExploreOptions Opts;
  Opts.MaxSteps = 4096;
  ExploreResult Res = exploreThreaded(Cfg, Opts);

  MonitorCheck Out;
  Out.SchedulesExplored = Res.SchedulesExplored;
  Out.StatesExplored = Res.StatesExplored;
  if (!Res.Ok) {
    Out.Violation = Res.Violation;
    return Out;
  }
  std::int64_t Expected = 0;
  for (unsigned I = 0; I != Items; ++I)
    Expected = Expected * 100 + (7 + I);
  for (const Outcome &O : Res.Outcomes) {
    auto It = O.Returns.find(0);
    if (It == O.Returns.end() || It->second.size() != 1 ||
        It->second[0] != Expected) {
      Out.Violation = "channel lost, duplicated, or reordered a message";
      return Out;
    }
  }
  Out.Ok = true;
  return Out;
}
