//===- tests/serve/serve_test.cpp - certd daemon integration tests -------------===//
//
// The verification service end to end, in-process: framing over real
// sockets, the job catalog, and a live daemon exercised the ways the
// ISSUE's acceptance bar demands — two clients paying for shared
// obligations once, a full queue rejecting whole batches, a timeout
// cancelling mid-exploration into a fail-closed truncation with no
// certificate stored, a client crashing mid-job without leaking the
// worker, and hostile frames (malformed, nested 100 deep, oversized)
// bouncing off the depth- and size-capped parser.
//
//===----------------------------------------------------------------------===//

#include "serve/Certd.h"
#include "serve/Client.h"

#include "cert/CertStore.h"
#include "objects/TicketLock.h"
#include "obs/Metrics.h"
#include "obs/Trace.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <thread>

#include <sys/socket.h>
#include <unistd.h>

using namespace ccal;
using namespace ccal::serve;
namespace fs = std::filesystem;

namespace {

/// Each test gets a private socket, a private certificate store, and a
/// clean registry; the global store is detached again afterwards.
class ServeTest : public ::testing::Test {
protected:
  void SetUp() override {
    WasEnabled = obs::enabled();
    obs::setEnabled(true);
    obs::metricsReset();
    static std::atomic<unsigned> Seq{0};
    const std::string Tag = std::to_string(::getpid()) + "_" +
                            std::to_string(Seq.fetch_add(1));
    // sun_path is ~108 bytes; keep the socket name short and unique
    // rather than test-name derived.
    Socket = (fs::path(::testing::TempDir()) / ("ccal_sv_" + Tag + ".sock"))
                 .string();
    StoreDir = fs::path(::testing::TempDir()) / ("ccal_sv_store_" + Tag);
    fs::remove_all(StoreDir);
    cert::setStoreDir(StoreDir.string());
  }
  void TearDown() override {
    cert::setStoreDir("");
    fs::remove_all(StoreDir);
    ::unlink(Socket.c_str());
    obs::metricsReset();
    obs::setEnabled(WasEnabled);
  }

  std::unique_ptr<Certd> startDaemon(unsigned Workers = 2,
                                     std::size_t QueueBound = 64) {
    CertdOptions O;
    O.SocketPath = Socket;
    O.Workers = Workers;
    O.QueueBound = QueueBound;
    auto D = std::make_unique<Certd>(O);
    std::string Err;
    if (!D->start(Err)) {
      ADD_FAILURE() << "daemon start failed: " << Err;
      return nullptr;
    }
    return D;
  }

  CertClient connected() {
    CertClient C;
    std::string Err;
    EXPECT_TRUE(C.connect(Socket, Err)) << Err;
    return C;
  }

  /// refine-* files currently in the store (the entries a verify mints).
  std::vector<fs::path> refineCerts() const {
    std::vector<fs::path> Out;
    std::error_code Ec;
    for (const fs::directory_entry &E :
         fs::directory_iterator(StoreDir, Ec))
      if (E.path().filename().string().rfind("refine-", 0) == 0)
        Out.push_back(E.path());
    return Out;
  }

  static bool waitFor(const std::function<bool()> &Cond,
                      std::chrono::milliseconds Deadline =
                          std::chrono::seconds(10)) {
    auto Until = std::chrono::steady_clock::now() + Deadline;
    while (std::chrono::steady_clock::now() < Until) {
      if (Cond())
        return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return Cond();
  }

  std::string Socket;
  fs::path StoreDir;
  bool WasEnabled = false;
};

} // namespace

// ---- wire protocol ----

TEST(ServeProtocolTest, FramesRoundTripOverASocketPair) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  std::string Err;
  ASSERT_TRUE(writeFrame(Sv[0], "hello", Err)) << Err;
  ASSERT_TRUE(writeFrame(Sv[0], "", Err)) << Err; // empty payload is legal
  ASSERT_TRUE(writeFrame(Sv[0], std::string(70000, 'x'), Err)) << Err;

  std::string P;
  EXPECT_EQ(readFrame(Sv[1], P, Err), FrameStatus::Ok);
  EXPECT_EQ(P, "hello");
  EXPECT_EQ(readFrame(Sv[1], P, Err), FrameStatus::Ok);
  EXPECT_EQ(P, "");
  EXPECT_EQ(readFrame(Sv[1], P, Err), FrameStatus::Ok);
  EXPECT_EQ(P.size(), 70000u);

  ::close(Sv[0]); // clean EOF lands exactly on a frame boundary
  EXPECT_EQ(readFrame(Sv[1], P, Err), FrameStatus::Eof);
  ::close(Sv[1]);
}

TEST(ServeProtocolTest, TornAndOversizedFramesAreErrors) {
  int Sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  std::string Err;

  // A header promising more bytes than ever arrive: torn frame.
  const unsigned char Short[4] = {0, 0, 0, 9};
  ASSERT_EQ(::write(Sv[0], Short, 4), 4);
  ASSERT_EQ(::write(Sv[0], "abc", 3), 3);
  ::close(Sv[0]);
  std::string P;
  EXPECT_EQ(readFrame(Sv[1], P, Err), FrameStatus::Error);
  ::close(Sv[1]);

  // A declared length beyond the cap errors BEFORE any allocation.
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, Sv), 0);
  const unsigned char Huge[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(Sv[0], Huge, 4), 4);
  EXPECT_EQ(readFrame(Sv[1], P, Err), FrameStatus::Error);
  EXPECT_NE(Err.find("cap"), std::string::npos) << Err;
  ::close(Sv[0]);
  ::close(Sv[1]);

  // The writer enforces the same cap.
  EXPECT_FALSE(writeFrame(-1, std::string(MaxFrameBytes + 1, 'x'), Err));
}

TEST(ServeProtocolTest, JobResultJsonRoundTrips) {
  JobResult R;
  R.Job = "ticket.2cpu";
  R.Holds = true;
  R.Complete = true;
  R.Schedules = 1234;
  R.Obligations = 567;
  R.CertHits = 2;
  R.CertMisses = 1;
  R.CertStores = 1;
  R.WallMs = 47.25;
  JobResult Back;
  std::string Err;
  ASSERT_TRUE(jobResultFromJson(jobResultToJson(R), Back, Err)) << Err;
  EXPECT_EQ(Back.Job, R.Job);
  EXPECT_EQ(Back.Holds, R.Holds);
  EXPECT_EQ(Back.Complete, R.Complete);
  EXPECT_EQ(Back.Schedules, R.Schedules);
  EXPECT_EQ(Back.CertHits, R.CertHits);
  EXPECT_EQ(Back.WallMs, R.WallMs);

  EXPECT_FALSE(jobResultFromJson(jsonStr("not an object"), Back, Err));
  JsonValue NoJob;
  NoJob.K = JsonValue::Kind::Object;
  EXPECT_FALSE(jobResultFromJson(NoJob, Back, Err));
}

// ---- daemon lifecycle and basic ops ----

TEST_F(ServeTest, PingListStatsAndGracefulShutdown) {
  auto D = startDaemon();
  ASSERT_NE(D, nullptr);
  EXPECT_FALSE(D->isShutdown());

  CertClient C = connected();
  std::string Err;
  EXPECT_TRUE(C.ping(Err)) << Err;

  std::vector<JobInfo> Catalog;
  ASSERT_TRUE(C.list(Catalog, Err)) << Err;
  auto Has = [&Catalog](const std::string &N) {
    for (const JobInfo &J : Catalog)
      if (J.Name == N)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("ticket.2cpu"));
  EXPECT_TRUE(Has("mcs.2cpu"));

  JsonValue Stats;
  ASSERT_TRUE(C.stats(Stats, Err)) << Err;
  const JsonValue *Counters = Stats.field("counters");
  ASSERT_NE(Counters, nullptr);
  const JsonValue *Requests = Counters->field("serve.requests");
  ASSERT_NE(Requests, nullptr);
  EXPECT_GE(Requests->IntVal, 2); // the ping and the list at least

  // The protocol-level drain: acknowledged, then the daemon winds down,
  // unlinks its socket, and new connections fail.
  EXPECT_TRUE(C.requestShutdown(Err)) << Err;
  D->waitShutdown();
  EXPECT_TRUE(D->isShutdown());
  CertClient After;
  EXPECT_FALSE(After.connect(Socket, Err));
}

TEST_F(ServeTest, SecondClientPaysNothingForSharedObligations) {
  auto D = startDaemon();
  ASSERT_NE(D, nullptr);

  // Client 1, cold: pays the exploration, mints the certificates.
  {
    CertClient C = connected();
    VerifyResponse R;
    std::string Err;
    ASSERT_TRUE(C.verify({"ticket.2cpu"}, {}, R, Err)) << Err;
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_EQ(R.Results.size(), 1u);
    EXPECT_TRUE(R.Results[0].Holds) << R.Results[0].Diagnostic;
    EXPECT_TRUE(R.Results[0].Complete);
    EXPECT_GT(R.Results[0].Schedules, 0u);
    EXPECT_EQ(R.Results[0].CertHits, 0u);
    EXPECT_EQ(R.Results[0].CertMisses, 1u);
    EXPECT_EQ(R.Results[0].CertStores, 1u);
  }
  ASSERT_EQ(refineCerts().size(), 1u);

  // Client 2, same stack, new connection: the shared store serves every
  // obligation — zero new stores, one hit, zero re-exploration.
  const std::uint64_t Explored =
      obs::counterValue("explorer.schedules_explored");
  {
    CertClient C = connected();
    VerifyResponse R;
    std::string Err;
    ASSERT_TRUE(C.verify({"ticket.2cpu"}, {}, R, Err)) << Err;
    ASSERT_TRUE(R.Ok) << R.Error;
    ASSERT_EQ(R.Results.size(), 1u);
    EXPECT_TRUE(R.Results[0].Holds);
    EXPECT_EQ(R.Results[0].CertHits, 1u);
    EXPECT_EQ(R.Results[0].CertMisses, 0u);
    EXPECT_EQ(R.Results[0].CertStores, 0u);
  }
  EXPECT_EQ(obs::counterValue("explorer.schedules_explored"), Explored);

  D->shutdown();
}

TEST_F(ServeTest, RaAndScJobsShareStoreWithoutCrossTalk) {
  auto D = startDaemon();
  ASSERT_NE(D, nullptr);
  CertClient C = connected();
  std::string Err;

  // The RA re-verification jobs are in the catalog.
  std::vector<JobInfo> Catalog;
  ASSERT_TRUE(C.list(Catalog, Err)) << Err;
  auto Has = [&Catalog](const std::string &N) {
    for (const JobInfo &J : Catalog)
      if (J.Name == N)
        return true;
    return false;
  };
  EXPECT_TRUE(Has("ticket.2cpu.ra"));
  EXPECT_TRUE(Has("mcs.2cpu.ra"));

  // Cold SC job mints its certificate.
  VerifyResponse Sc;
  ASSERT_TRUE(C.verify({"ticket.2cpu"}, {}, Sc, Err)) << Err;
  ASSERT_TRUE(Sc.Ok && Sc.Results[0].Holds) << Sc.Results[0].Diagnostic;
  const std::size_t ScCerts = refineCerts().size();
  ASSERT_EQ(ScCerts, 1u);

  // The RA twin of the same lock is a *different* obligation: it must not
  // hit the SC entry (zero hits — that would be cross-talk trusting an SC
  // proof for a weak-memory claim), and it mints its own certificates
  // alongside in the shared store.
  VerifyResponse Ra;
  ASSERT_TRUE(C.verify({"ticket.2cpu.ra"}, {}, Ra, Err)) << Err;
  ASSERT_TRUE(Ra.Ok && Ra.Results[0].Holds) << Ra.Results[0].Diagnostic;
  EXPECT_TRUE(Ra.Results[0].Complete);
  EXPECT_EQ(Ra.Results[0].CertHits, 0u);
  EXPECT_EQ(Ra.Results[0].CertStores, 1u);
  EXPECT_EQ(refineCerts().size(), ScCerts + 1);

  // Warm repeats each hit their own entry; neither re-explores.
  const std::uint64_t Explored =
      obs::counterValue("explorer.schedules_explored");
  VerifyResponse Sc2, Ra2;
  ASSERT_TRUE(C.verify({"ticket.2cpu"}, {}, Sc2, Err)) << Err;
  ASSERT_TRUE(C.verify({"ticket.2cpu.ra"}, {}, Ra2, Err)) << Err;
  EXPECT_EQ(Sc2.Results[0].CertHits, 1u);
  EXPECT_EQ(Sc2.Results[0].CertStores, 0u);
  EXPECT_EQ(Ra2.Results[0].CertHits, 1u);
  EXPECT_EQ(Ra2.Results[0].CertStores, 0u);
  EXPECT_EQ(obs::counterValue("explorer.schedules_explored"), Explored);

  D->shutdown();
}

TEST_F(ServeTest, UnknownJobsAreReportedPerJobNotAsBatchFailure) {
  auto D = startDaemon();
  ASSERT_NE(D, nullptr);
  CertClient C = connected();
  VerifyResponse R;
  std::string Err;
  ASSERT_TRUE(C.verify({"no.such.job", "ticket.2cpu"}, {}, R, Err)) << Err;
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Results.size(), 2u);
  EXPECT_FALSE(R.Results[0].Known);
  EXPECT_NE(R.Results[0].Diagnostic.find("unknown job"), std::string::npos);
  EXPECT_TRUE(R.Results[1].Known);
  EXPECT_TRUE(R.Results[1].Holds);
  D->shutdown();
}

// ---- queue bound ----

namespace {
/// A job that parks until released; lets tests pin the single worker.
struct Blocker {
  std::mutex Mu;
  std::condition_variable Cv;
  bool Released = false;
  std::atomic<int> Started{0};

  void release() {
    {
      std::lock_guard<std::mutex> L(Mu);
      Released = true;
    }
    Cv.notify_all();
  }
};
} // namespace

TEST_F(ServeTest, FullQueueRejectsTheWholeBatch) {
  auto B = std::make_shared<Blocker>();
  registerJob("test.block", "parks until released", [B](const JobContext &) {
    B->Started.fetch_add(1);
    std::unique_lock<std::mutex> L(B->Mu);
    B->Cv.wait(L, [&B] { return B->Released; });
    JobResult R;
    R.Holds = true;
    R.Complete = true;
    return R;
  });

  auto D = startDaemon(/*Workers=*/1, /*QueueBound=*/1);
  ASSERT_NE(D, nullptr);

  // Occupy the single worker; once started the queue itself is empty.
  std::thread First([this] {
    CertClient C = connected();
    VerifyResponse R;
    std::string Err;
    ASSERT_TRUE(C.verify({"test.block"}, {}, R, Err)) << Err;
    EXPECT_TRUE(R.Ok) << R.Error;
  });
  ASSERT_TRUE(waitFor([&B] { return B->Started.load() >= 1; }));

  // A batch of two against bound 1: rejected whole — nothing partial
  // runs, nothing was enqueued.
  {
    CertClient C = connected();
    VerifyResponse R;
    std::string Err;
    ASSERT_TRUE(C.verify({"test.block", "test.block"}, {}, R, Err)) << Err;
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("queue full"), std::string::npos) << R.Error;
  }
  EXPECT_GE(obs::counterValue("serve.rejected_queue_full"), 1u);
  EXPECT_EQ(B->Started.load(), 1); // the rejected batch never ran

  B->release();
  First.join();
  D->shutdown();
}

// ---- per-job certificate attribution ----

TEST_F(ServeTest, ConcurrentJobsAreBilledExactlyTheirOwnCertTraffic) {
  // Two jobs of one batch run side by side on two workers.  test.wait
  // parks on a latch for the whole time test.mint misses and stores a
  // certificate, so a process-wide counter window around test.wait would
  // bill it test.mint's traffic; each job must report exactly its own.
  auto Latch = std::make_shared<Blocker>();
  registerJob("test.wait", "parks while its neighbour mints",
              [Latch](const JobContext &) {
                Latch->Started.fetch_add(1);
                std::unique_lock<std::mutex> L(Latch->Mu);
                Latch->Cv.wait_for(L, std::chrono::seconds(30),
                                   [&Latch] { return Latch->Released; });
                JobResult R;
                R.Holds = Latch->Released; // false: the latch timed out
                R.Complete = true;
                return R;
              });
  registerJob("test.mint", "mints a certificate while test.wait parks",
              [Latch](const JobContext &) {
                JobResult R;
                if (waitFor([&Latch] { return Latch->Started.load() >= 1; })) {
                  HarnessOutcome Out =
                      runObjectHarness(makeTicketLockHarness(1, 2));
                  R.Holds = Out.Report.Holds;
                  R.Complete = true;
                }
                Latch->release();
                return R;
              });

  auto D = startDaemon(/*Workers=*/2);
  ASSERT_NE(D, nullptr);
  CertClient C = connected();
  VerifyResponse R;
  std::string Err;
  ASSERT_TRUE(C.verify({"test.wait", "test.mint"}, {}, R, Err)) << Err;
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Results.size(), 2u);
  const JobResult &Wait = R.Results[0], &Mint = R.Results[1];
  EXPECT_TRUE(Wait.Holds); // released by test.mint, so the windows overlap
  EXPECT_TRUE(Mint.Holds);
  EXPECT_EQ(Wait.CertHits, 0u);
  EXPECT_EQ(Wait.CertMisses, 0u);
  EXPECT_EQ(Wait.CertStores, 0u);
  EXPECT_EQ(Mint.CertHits, 0u);
  EXPECT_EQ(Mint.CertMisses, 1u);
  EXPECT_EQ(Mint.CertStores, 1u);
  EXPECT_EQ(refineCerts().size(), 1u);

  D->shutdown();
}

// ---- timeout: fail-closed truncation, no certificate ----

TEST_F(ServeTest, TimeoutCancelsIntoTruncationAndStoresNoCertificate) {
  auto D = startDaemon(/*Workers=*/1);
  ASSERT_NE(D, nullptr);

  // ticket.2cpu.2r explores for tens of seconds uncancelled; a 150ms
  // timeout must cancel it mid-exploration.  Uncancelled, the job Holds,
  // so a broken cancel path fails this test rather than flaking it.
  CertClient C = connected();
  VerifyResponse R;
  std::string Err;
  VerifyOptions VO;
  VO.TimeoutMs = 150;
  ASSERT_TRUE(C.verify({"ticket.2cpu.2r"}, VO, R, Err)) << Err;
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Results.size(), 1u);
  const JobResult &J = R.Results[0];
  EXPECT_FALSE(J.Holds);
  EXPECT_FALSE(J.Complete);
  EXPECT_NE(J.Diagnostic.find("job timeout (150 ms)"), std::string::npos)
      << J.Diagnostic;
  EXPECT_EQ(J.CertStores, 0u);
  EXPECT_GE(obs::counterValue("serve.timeouts"), 1u);
  // Fail-closed all the way down: the store holds no refinement
  // certificate for the cancelled check.
  EXPECT_TRUE(refineCerts().empty());

  D->shutdown();
}

// ---- client crash mid-job ----

TEST_F(ServeTest, ClientCrashMidJobDoesNotLeakTheWorker) {
  auto B = std::make_shared<Blocker>();
  registerJob("test.park", "parks until released", [B](const JobContext &) {
    B->Started.fetch_add(1);
    std::unique_lock<std::mutex> L(B->Mu);
    B->Cv.wait(L, [&B] { return B->Released; });
    JobResult R;
    R.Holds = true;
    R.Complete = true;
    return R;
  });

  auto D = startDaemon(/*Workers=*/1);
  ASSERT_NE(D, nullptr);

  // A raw connection that submits a job and "crashes" (full close) while
  // the job runs.
  std::string Err;
  int Fd = connectUnix(Socket, Err);
  ASSERT_GE(Fd, 0) << Err;
  JsonValue Req;
  Req.K = JsonValue::Kind::Object;
  Req.Fields["op"] = jsonStr("verify");
  Req.Fields["jobs"] = jsonArray({jsonStr("test.park")});
  ASSERT_TRUE(writeFrameJson(Fd, Req, Err)) << Err;
  ASSERT_TRUE(waitFor([&B] { return B->Started.load() >= 1; }));
  ::close(Fd); // the crash

  B->release();
  // The daemon finishes the job, fails the response write, and survives.
  ASSERT_TRUE(waitFor(
      [] { return obs::counterValue("serve.client_disconnects") >= 1; }));

  // The worker is back in the pool: a fresh client gets served.
  CertClient C = connected();
  EXPECT_TRUE(C.ping(Err)) << Err;
  VerifyResponse R;
  ASSERT_TRUE(C.verify({"test.park"}, {}, R, Err)) << Err;
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_TRUE(R.Results[0].Holds);

  // shutdown() joining proves no thread leaked blocked.
  D->shutdown();
  EXPECT_TRUE(D->isShutdown());
}

// ---- hostile frames ----

TEST_F(ServeTest, MalformedAndDeeplyNestedFramesGetErrorsNotCrashes) {
  auto D = startDaemon();
  ASSERT_NE(D, nullptr);

  std::string Err;
  int Fd = connectUnix(Socket, Err);
  ASSERT_GE(Fd, 0) << Err;

  // Malformed JSON: an error answer, and the connection stays usable
  // (frame boundaries were intact).
  ASSERT_TRUE(writeFrame(Fd, "{ this is not json", Err)) << Err;
  JsonValue Resp;
  ASSERT_EQ(readFrameJson(Fd, Resp, Err), FrameStatus::Ok) << Err;
  const JsonValue *Ok = Resp.field("ok");
  ASSERT_NE(Ok, nullptr);
  EXPECT_FALSE(Ok->BoolVal);

  // 100-deep nesting: the wire parser's depth cap (32) rejects it with a
  // position-tagged error instead of recursing toward a stack overflow.
  std::string Deep(100, '[');
  Deep.append(100, ']');
  ASSERT_TRUE(writeFrame(Fd, Deep, Err)) << Err;
  ASSERT_EQ(readFrameJson(Fd, Resp, Err), FrameStatus::Ok) << Err;
  Ok = Resp.field("ok");
  ASSERT_NE(Ok, nullptr);
  EXPECT_FALSE(Ok->BoolVal);
  const JsonValue *E = Resp.field("error");
  ASSERT_NE(E, nullptr);
  EXPECT_NE(E->StrVal.find("depth"), std::string::npos) << E->StrVal;

  // Same connection still answers an honest request afterwards.
  JsonValue Ping;
  Ping.K = JsonValue::Kind::Object;
  Ping.Fields["op"] = jsonStr("ping");
  ASSERT_TRUE(writeFrameJson(Fd, Ping, Err)) << Err;
  ASSERT_EQ(readFrameJson(Fd, Resp, Err), FrameStatus::Ok) << Err;
  EXPECT_TRUE(Resp.field("ok")->BoolVal);
  ::close(Fd);

  EXPECT_GE(obs::counterValue("serve.bad_frames"), 2u);

  // An oversized declared length drops that connection; the daemon
  // itself shrugs it off.
  int Fd2 = connectUnix(Socket, Err);
  ASSERT_GE(Fd2, 0) << Err;
  const unsigned char Huge[4] = {0x7f, 0xff, 0xff, 0xff};
  ASSERT_EQ(::write(Fd2, Huge, 4), 4);
  std::string P;
  EXPECT_NE(readFrame(Fd2, P, Err), FrameStatus::Ok); // dropped on us
  ::close(Fd2);

  CertClient C = connected();
  EXPECT_TRUE(C.ping(Err)) << Err;
  D->shutdown();
}

// ---- drain semantics ----

TEST_F(ServeTest, ShutdownDrainsQueuedJobsAndAnswersWaitingClients) {
  auto B = std::make_shared<Blocker>();
  registerJob("test.drain", "parks until released", [B](const JobContext &) {
    B->Started.fetch_add(1);
    std::unique_lock<std::mutex> L(B->Mu);
    B->Cv.wait(L, [&B] { return B->Released; });
    JobResult R;
    R.Holds = true;
    R.Complete = true;
    return R;
  });

  auto D = startDaemon(/*Workers=*/1);
  ASSERT_NE(D, nullptr);

  // Two jobs: one running, one queued, with a client waiting on both.
  VerifyResponse R;
  std::thread Waiter([this, &R] {
    CertClient C = connected();
    std::string Err;
    ASSERT_TRUE(C.verify({"test.drain", "test.drain"}, {}, R, Err)) << Err;
  });
  ASSERT_TRUE(waitFor([&B] { return B->Started.load() >= 1; }));

  // Shutdown mid-batch: the queued job must still run (drain, don't
  // drop) and the waiting client must still get its full answer.
  D->requestShutdown();
  // New work is rejected the moment the drain begins...
  ASSERT_TRUE(waitFor([this] {
    CertClient C;
    std::string Err;
    if (!C.connect(Socket, Err))
      return true; // socket already unlinked — also "rejected"
    VerifyResponse VR;
    if (!C.verify({"ticket.2cpu"}, {}, VR, Err))
      return true; // connection torn down mid-request
    return !VR.Ok; // or answered with the shutting-down error
  }));

  B->release();
  Waiter.join();
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Results.size(), 2u);
  EXPECT_TRUE(R.Results[0].Holds);
  EXPECT_TRUE(R.Results[1].Holds); // the queued one ran to completion
  EXPECT_GE(obs::counterValue("serve.jobs"), 2u);

  D->waitShutdown();
  EXPECT_TRUE(D->isShutdown());
}
