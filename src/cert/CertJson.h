//===- cert/CertJson.h - Certificate (de)serialization ---------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// JSON (de)serialization of RefinementCertificate trees, event logs, and
/// implication reports — the payloads the certificate store persists —
/// plus the strict field readers every payload decoder uses.  The
/// writer goes through support/Json.h's deterministic renderer, so equal
/// derivations always serialize to byte-identical text (what lets CI
/// compare a warm cache to a cold one by checksum), and the reader is
/// strict: any missing or ill-typed field fails the whole parse, which the
/// store turns into a rejection and a fresh re-check.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_CERT_CERTJSON_H
#define CCAL_CERT_CERTJSON_H

#include "core/Certificate.h"
#include "core/Log.h"
#include "core/RelyGuarantee.h"
#include "support/Json.h"

#include <cstdint>
#include <string>

namespace ccal {
namespace cert {

/// Strict field readers for the payload decoders: each returns false, with
/// \p Error naming the field, when \p Name is missing or ill-typed (for
/// getU64, also when it is negative), and leaves \p Out untouched then.
bool getStr(const JsonValue &V, const char *Name, std::string &Out,
            std::string &Error);
bool getBool(const JsonValue &V, const char *Name, bool &Out,
             std::string &Error);
bool getU64(const JsonValue &V, const char *Name, std::uint64_t &Out,
            std::string &Error);

/// Serializes a certificate tree (premises recursively).
JsonValue certToJson(const RefinementCertificate &C);

/// Strict inverse of certToJson; nullptr (with \p Error set) on any
/// missing or ill-typed field.
CertPtr certFromJson(const JsonValue &V, std::string &Error);

/// Events as compact triples `[tid, "kind", [args...]]`.
JsonValue eventToJson(const Event &E);
bool eventFromJson(const JsonValue &V, Event &Out);

JsonValue logToJson(const Log &L);
bool logFromJson(const JsonValue &V, Log &Out);

JsonValue implicationToJson(const ImplicationReport &R);
bool implicationFromJson(const JsonValue &V, ImplicationReport &Out);

} // namespace cert
} // namespace ccal

#endif // CCAL_CERT_CERTJSON_H
