//===- serve/Protocol.h - certd wire protocol ------------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The certd wire protocol: length-prefixed JSON frames over a Unix-domain
/// stream socket.
///
/// Frame format (both directions):
///
///   +-------------------+----------------------+
///   | u32 length (BE)   | length bytes of JSON |
///   +-------------------+----------------------+
///
/// Requests are JSON objects dispatched on "op":
///
///   {"op":"ping"}                          -> {"ok":true,"pong":true}
///   {"op":"list"}                          -> {"ok":true,"jobs":[{"name","desc"},...]}
///   {"op":"stats"}                         -> {"ok":true,"stats":{counters...}}
///   {"op":"shutdown"}                      -> {"ok":true} then graceful drain
///   {"op":"verify","jobs":["ticket.2cpu",...],
///    "timeout_ms":N?, "threads":K?}        -> {"ok":true,"results":[JobResult...]}
///
/// A verify request is one BATCH: the daemon enqueues every named job,
/// fans them out across its worker pool, and answers with a single frame
/// once all of them finished — results arrive batched, in request order.
/// Errors are `{"ok":false,"error":"..."}` (queue full, shutting down,
/// malformed request).
///
/// Everything read from the socket is UNTRUSTED: frames are capped at
/// MaxFrameBytes before any allocation, and payloads parse with a tight
/// nesting-depth cap (WireJsonMaxDepth) so a hostile client can neither
/// balloon daemon memory nor overflow the parser's stack.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_SERVE_PROTOCOL_H
#define CCAL_SERVE_PROTOCOL_H

#include "support/Json.h"

#include <cstdint>
#include <string>

namespace ccal {
namespace serve {

/// Hard cap on one frame's payload; a declared length beyond it is a
/// protocol error and the connection is dropped (framing cannot resync).
constexpr std::size_t MaxFrameBytes = 16u << 20;

/// Nesting-depth cap for socket JSON — far tighter than the library-wide
/// JsonMaxDepth: no legitimate request or response nests deeper than a
/// handful of levels.
constexpr std::size_t WireJsonMaxDepth = 32;

/// Result of reading one frame.
enum class FrameStatus {
  Ok,    ///< one complete frame read
  Eof,   ///< clean end of stream at a frame boundary
  Error, ///< I/O failure, oversized frame, or torn frame
};

/// Reads one length-prefixed frame from \p Fd into \p Payload.
/// Retries EINTR; a peer that closes mid-frame is Error, at a frame
/// boundary Eof.
FrameStatus readFrame(int Fd, std::string &Payload, std::string &Err);

/// Writes one length-prefixed frame (EINTR-safe, EPIPE reported as an
/// error instead of a process-killing SIGPIPE).
bool writeFrame(int Fd, const std::string &Payload, std::string &Err);

/// readFrame + depth-capped parse.
FrameStatus readFrameJson(int Fd, JsonValue &Out, std::string &Err);

/// jsonToString + writeFrame.
bool writeFrameJson(int Fd, const JsonValue &V, std::string &Err);

/// Binds and listens on a Unix-domain socket at \p Path (an existing
/// socket file is unlinked first — a previous daemon's leftover).
/// Returns the fd, or -1 with \p Err.
int listenUnix(const std::string &Path, int Backlog, std::string &Err);

/// Connects to the daemon at \p Path; returns the fd, or -1 with \p Err.
int connectUnix(const std::string &Path, std::string &Err);

/// One job's verification result as it travels over the wire.
struct JobResult {
  std::string Job;
  bool Known = true;     ///< false: no such job in the catalog
  bool Holds = false;    ///< the refinement held (implies Complete)
  bool Complete = false; ///< exploration ran to completion
  /// Counterexample, truncation reason ("job timeout (2000 ms)"), or ""
  /// — a timed-out job reports the Explorer's fail-closed truncation
  /// diagnostic here, never a false Holds.
  std::string Diagnostic;
  std::uint64_t Schedules = 0;
  std::uint64_t Obligations = 0;
  /// Certificate-store traffic of this job: the running thread's store
  /// tally (cert::threadTraffic) around the run, exact also when jobs run
  /// concurrently on one daemon.
  std::uint64_t CertHits = 0;
  std::uint64_t CertMisses = 0;
  std::uint64_t CertStores = 0;
  double WallMs = 0;
};

JsonValue jobResultToJson(const JobResult &R);
bool jobResultFromJson(const JsonValue &V, JobResult &Out, std::string &Err);

} // namespace serve
} // namespace ccal

#endif // CCAL_SERVE_PROTOCOL_H
