//===- cert/CertStore.h - Persistent certificate store ---------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A content-addressed, persistent store of refinement certificates: the
/// executable analogue of the paper's reusable proof objects.  A derivation
/// checked once is serialized under the CertKey of everything it quantifies
/// over; later runs whose inputs hash to the same address load the
/// certificate instead of re-exploring the schedule space, so editing one
/// layer's module re-discharges only that layer's obligations.
///
/// The store FAILS CLOSED, mirroring how the calculus combinators reject
/// ill-formed derivations.  A loaded entry is discarded (counted as a
/// rejection, and the check re-runs) when any of these mismatch:
///   * the document does not parse, or its schema version is unknown;
///   * the recorded checker / version tag / key differ from the recomputed
///     CertKey;
///   * the certificate fails strict deserialization;
///   * the certificate claims Valid without CoverageComplete (impossible
///     to mint honestly — evidence of tampering);
///   * the certificate's coverage is incomplete — a truncated exploration
///     discharges nothing, so caching it would be pure down-side.
/// A stale or tampered entry can therefore never surface as Valid.
///
/// Enabled by `CCAL_CERT_CACHE=<dir>` (created on demand); an optional
/// `CCAL_CERT_CACHE_MAX=<n>` caps the entry count, evicting oldest-mtime
/// files.  Hits/misses/stores/rejections/evictions are exported through
/// the obs:: registry as `cert.*`; hits, misses and stores are also
/// tallied per thread (threadTraffic) for per-job attribution.
///
/// Cross-process contract.  The directory may be shared by any number of
/// threads AND processes concurrently (ctest -j, N ccal-verify clients
/// against one certd, several daemons): writes are atomic (writer-unique
/// temp file + rename), a file vanishing at any point between directory
/// walk, stat, open, and read is treated as a plain cache miss — another
/// process evicted it, which is never an error — and eviction is
/// idempotent: a remove that finds the file already gone counts
/// `cert.evict_lost_race` instead of double-booking an eviction.  A torn
/// or tampered read can therefore only ever produce a fail-closed
/// rejection followed by a re-check, never a wrong answer.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CERT_CERTSTORE_H
#define CCAL_CERT_CERTSTORE_H

#include "cert/CertJson.h"
#include "cert/CertKey.h"

#include <cstdint>
#include <functional>
#include <string>

namespace ccal {
namespace cert {

/// Schema version of the on-disk entry format; bump on layout changes so
/// old stores miss instead of half-parsing.
constexpr int StoreSchemaVersion = 1;

class CertStore {
public:
  /// \p MaxEntries of 0 means unbounded.
  explicit CertStore(std::string Dir, std::size_t MaxEntries = 0);

  /// One stored entry: the certificate tree plus the checker-specific
  /// report payload (whatever the front-end needs to reconstruct its full
  /// report — verdict, evidence counters, implication details).
  struct Entry {
    CertPtr Cert;
    JsonValue Payload;
  };

  /// The load-or-recheck front-end.  \p Decode rebuilds the caller's
  /// report from a stored entry, returning false to reject it (counted);
  /// \p Check runs the real check and returns the entry to persist.
  /// Returns true when the result was served from the store.  Entries
  /// whose certificate is null or has incomplete coverage are not
  /// persisted — only evidence worth reusing is kept.
  bool getOrCheck(const CertKey &Key,
                  const std::function<bool(const Entry &)> &Decode,
                  const std::function<Entry()> &Check);

  /// Loads and validates the entry at \p Key; false on miss or rejection
  /// (rejected files are deleted so the next run does not re-reject).
  bool load(const CertKey &Key, Entry &Out);

  /// Persists \p E under \p Key (atomic write; no-op with a rejection
  /// count when the entry is unfit to store).
  void store(const CertKey &Key, const Entry &E);

  /// Serializes an entry exactly as `store` writes it (exposed so tests
  /// and CI can compare stored bytes).
  static std::string render(const CertKey &Key, const Entry &E);

  const std::string &dir() const { return Dir; }

private:
  void evictIfFull();

  std::string Dir;
  std::size_t MaxEntries;
};

/// Certificate-store hits, misses and stores counted on one thread.
struct Traffic {
  std::uint64_t Hits = 0;
  std::uint64_t Misses = 0;
  std::uint64_t Stores = 0;
};

/// The calling thread's store traffic since the thread started, counted
/// whether or not the obs registry is enabled.  The registry's `cert.*`
/// counters are process-wide, so concurrent checks mix there; a caller
/// that runs a check on its own thread takes the difference of this tally
/// around it instead (certd's per-job figures).
Traffic threadTraffic();

/// The process-wide store, configured from CCAL_CERT_CACHE on first use;
/// nullptr when caching is disabled (the default — every checker then
/// behaves exactly as before the store existed).
CertStore *store();

/// Points the process-wide store at \p Dir programmatically ("" disables).
/// Used by tests, benches, and the examples; overrides the environment.
void setStoreDir(const std::string &Dir, std::size_t MaxEntries = 0);

} // namespace cert
} // namespace ccal

#endif // CCAL_CERT_CERTSTORE_H
