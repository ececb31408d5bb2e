//===- lang/Interp.h - ClightX reference interpreter -----------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sequential reference interpreter for ClightX: the source-level
/// semantics against which the CompCertX-analogue compiler is validated
/// (translation validation replaces the paper's once-and-for-all Coq
/// correctness proof; see compcertx/Validate.h).
///
/// Primitive calls (extern functions) are dispatched to a PrimHandler and
/// recorded in an observable trace; trace equality is the refinement
/// criterion between source and compiled code.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_LANG_INTERP_H
#define CCAL_LANG_INTERP_H

#include "lang/Ast.h"

#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace ccal {

/// Host hook implementing the underlay primitives during sequential
/// interpretation; std::nullopt makes the interpreter stuck.
using PrimHandler = std::function<std::optional<std::int64_t>(
    const std::string &Name, const std::vector<std::int64_t> &Args)>;

/// One observable primitive call.
struct PrimTraceEntry {
  std::string Name;
  std::vector<std::int64_t> Args;
  std::int64_t Ret = 0;

  bool operator==(const PrimTraceEntry &O) const {
    return Name == O.Name && Args == O.Args && Ret == O.Ret;
  }
};

/// Tuning knobs for interpretation.
struct InterpOptions {
  std::uint64_t MaxSteps = 1u << 22; ///< statement-evaluation budget
};

/// Big-step interpreter over a typechecked module.  Globals persist across
/// call()s, like a module instance.
class Interp {
public:
  /// \p M must outlive the interpreter and be typechecked.
  Interp(const ClightModule &M, PrimHandler Prims,
         InterpOptions Opts = InterpOptions());

  /// Runs function \p Fn on \p Args; std::nullopt on a runtime error or a
  /// stuck primitive (see error()); void functions yield 0.
  std::optional<std::int64_t> call(const std::string &Fn,
                                   std::vector<std::int64_t> Args);

  const std::string &error() const { return Err; }
  const std::vector<PrimTraceEntry> &trace() const { return Trace; }

  /// Address of global \p Name in the flat global store; aborts if absent.
  int globalAddr(const std::string &Name) const;

  std::vector<std::int64_t> &globals() { return Globals; }
  const std::vector<std::int64_t> &globals() const { return Globals; }

private:
  struct ExecState;
  enum class Flow { Normal, Returned, Broke, Continued, Error };

  Flow execStmt(const Stmt &S, ExecState &ES);
  std::optional<std::int64_t> evalExpr(const Expr &E, ExecState &ES);
  std::optional<std::int64_t> callFunction(const FuncDecl &F,
                                           std::vector<std::int64_t> Args);

  void fail(int Line, const std::string &Msg);

  const ClightModule &M;
  PrimHandler Prims;
  InterpOptions Opts;
  std::vector<std::int64_t> Globals;
  std::map<std::string, std::pair<int, int>> GlobalLayout; ///< name->(addr,sz)
  std::vector<PrimTraceEntry> Trace;
  std::string Err;
  std::uint64_t Steps = 0;
  unsigned CallDepth = 0;
};

} // namespace ccal

#endif // CCAL_LANG_INTERP_H
