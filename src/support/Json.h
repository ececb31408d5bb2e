//===- support/Json.h - Minimal JSON parser --------------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small recursive-descent JSON parser plus a deterministic writer,
/// enough to validate the files this repository emits (BENCH_*.json,
/// Chrome trace_event dumps) inside its own tests and to round-trip the
/// certificate store's entries byte-identically — the schema checks must
/// not depend on a JSON library the container may not have.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_SUPPORT_JSON_H
#define CCAL_SUPPORT_JSON_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace ccal {

/// One parsed JSON value (a tree; object keys are unique, last wins).
struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object };
  Kind K = Kind::Null;

  bool BoolVal = false;
  double NumVal = 0.0;
  /// Numbers written without '.' or an exponent keep their exact 64-bit
  /// value here (NumVal still mirrors it, lossily above 2^53) so evidence
  /// counters survive parse→serialize round trips bit-for-bit.
  bool IsInt = false;
  std::int64_t IntVal = 0;
  std::string StrVal;
  std::vector<JsonValue> Items;                ///< arrays
  std::map<std::string, JsonValue> Fields;     ///< objects

  bool isBool() const { return K == Kind::Bool; }
  bool isNumber() const { return K == Kind::Number; }
  bool isString() const { return K == Kind::String; }
  bool isArray() const { return K == Kind::Array; }
  bool isObject() const { return K == Kind::Object; }

  /// Field \p Name of an object, or null when absent / not an object.
  const JsonValue *field(const std::string &Name) const {
    if (K != Kind::Object)
      return nullptr;
    auto It = Fields.find(Name);
    return It == Fields.end() ? nullptr : &It->second;
  }
};

/// Result of a parse: either a value or a position-tagged error.
struct JsonParseResult {
  bool Ok = false;
  JsonValue Value;
  std::string Error; ///< "offset N: message" when !Ok

  explicit operator bool() const { return Ok; }
};

/// Maximum container nesting the recursive-descent parser will follow.
/// The parser recurses once per '[' / '{', so without a cap a short
/// adversarial input ("[[[[…") overflows the C++ stack — fatal, not an
/// error return.  Documents this repository emits nest a few dozen levels
/// at most (certificate derivation trees), so 256 is generous headroom
/// while keeping worst-case recursion ~100 KiB of stack.
constexpr std::size_t JsonMaxDepth = 256;

/// Parses \p Text as one JSON document (trailing whitespace allowed,
/// trailing garbage is an error).  Containers nested deeper than
/// \p MaxDepth fail with a position-tagged error instead of recursing —
/// the input may come from an untrusted socket (serve/), where a
/// stack overflow would take the whole daemon down.
JsonParseResult parseJson(const std::string &Text,
                          std::size_t MaxDepth = JsonMaxDepth);

/// Value constructors for building documents programmatically.
JsonValue jsonNull();
JsonValue jsonBool(bool V);
JsonValue jsonInt(std::int64_t V);
/// Counters are unsigned; values above INT64_MAX are unreachable for any
/// real evidence count, and the cast keeps one integer representation.
JsonValue jsonUInt(std::uint64_t V);
JsonValue jsonNum(double V);
JsonValue jsonStr(std::string V);
JsonValue jsonArray(std::vector<JsonValue> Items);

/// Renders \p V compactly (no whitespace) and deterministically: object
/// keys come out in sorted (std::map) order, integers print exactly, and
/// doubles use a fixed shortest-ish "%.17g" form — so equal values always
/// produce byte-identical text.  serialize∘parse is the identity on the
/// writer's image, which is what makes stored certificates comparable by
/// checksum.
std::string jsonToString(const JsonValue &V);

} // namespace ccal

#endif // CCAL_SUPPORT_JSON_H
