//===- cert/CertKey.h - Content addresses for checks -----------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Content-addressed keys for the certificate store.  A CertKey names one
/// *check*: a canonical structural hash of everything the check quantifies
/// over — machine/layer configuration, exploration options, programs, the
/// relation — plus the checker's own version tag, so that changing any
/// input (or the checker's semantics) changes the address and the stored
/// certificate can never be confused with a different obligation.
///
/// Opaque std::function values (primitive semantics, strategies,
/// environment models, schedule replay functions) cannot be hashed
/// structurally; they enter the key through their declared *names*
/// (layer name + primitive names/flags/footprints, Strategy::describe(),
/// EventMap::name(), caller-provided tags).  This is the store's caching
/// contract: a semantic change hiding under an unchanged name requires a
/// checker version bump or a cleared cache.  Checks carrying genuinely
/// anonymous callables (an unnamed Explorer invariant, an untagged env
/// model) are treated as UNCACHEABLE — the front-ends bypass the store
/// rather than risk a collision, which is the fail-closed direction.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CERT_CERTKEY_H
#define CCAL_CERT_CERTKEY_H

#include "core/Footprint.h"
#include "core/LayerInterface.h"
#include "core/Log.h"
#include "support/Hash.h"

#include <cstdio>
#include <string>

namespace ccal {
namespace cert {

/// The address of one check's certificate in the store.
struct CertKey {
  /// Checker family: "refine", "sim", "link", "compat", "validate".
  std::string Checker;

  /// The checker's version tag; bumped whenever the checker's semantics
  /// change so stale entries miss instead of lying.
  std::string Version;

  /// Structural hash of every input the check quantifies over.
  std::uint64_t Hash = 0;

  /// Human-readable summary of the statement being checked (goes into the
  /// stored entry for auditing; not part of the address).
  std::string Desc;

  /// "<checker>-<16-hex-digit hash>": the store's file stem.
  std::string fileStem() const {
    char Buf[24];
    std::snprintf(Buf, sizeof(Buf), "%016llx",
                  static_cast<unsigned long long>(Hash));
    return Checker + "-" + Buf;
  }
};

/// Folds an event into \p H.
inline void keyAddEvent(Hasher &H, const Event &E) {
  H.u64(E.Tid).str(E.Kind.str()).i64s(E.Args);
}

/// Folds a log (length-prefixed) into \p H.
inline void keyAddLog(Hasher &H, const Log &L) {
  H.u64(L.size());
  for (const Event &E : L)
    keyAddEvent(H, E);
}

inline void keyAddFootprint(Hasher &H, const Footprint &F) {
  H.b(F.Opaque).strs(F.Reads).strs(F.Writes);
  // Ordering annotations fold only when non-default, so every key minted
  // before the memory-model refactor — all-SC by construction — hashes
  // byte-identically and stored SC certificates keep verifying.  The
  // constant false fills the slot of the deleted SC-fence annotation, so
  // keys written before its removal still match.
  if (F.weakOrdered())
    H.str("ord").str(memOrderName(F.ReadOrd)).str(memOrderName(F.WriteOrd))
        .b(F.Atomic).b(false).b(F.FairRead);
}

/// Folds a layer interface into \p H: its name, every primitive's name,
/// sharing/exit flags and declared footprint, and the rely/guarantee
/// invariant names.  Primitive *semantics* are represented by the
/// primitive's name (see the caching contract above).
inline void keyAddLayer(Hasher &H, const LayerInterface &L) {
  H.str(L.name());
  std::vector<std::string> Names = L.primNames();
  H.u64(Names.size());
  for (const std::string &N : Names) {
    const Primitive *P = L.lookup(N);
    H.str(N).b(P->Shared).b(P->ExitsThread);
    keyAddFootprint(H, P->Foot);
  }
  const RelyGuarantee &RG = L.rg();
  H.u64(RG.Rely.size());
  for (const auto &[Tid, Inv] : RG.Rely)
    H.u64(Tid).str(Inv.Name);
  H.u64(RG.Guar.size());
  for (const auto &[Tid, Inv] : RG.Guar)
    H.u64(Tid).str(Inv.Name);
}

} // namespace cert
} // namespace ccal

#endif // CCAL_CERT_CERTKEY_H
