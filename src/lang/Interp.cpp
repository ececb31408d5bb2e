//===- lang/Interp.cpp - ClightX reference interpreter ----------------------===//

#include "lang/Interp.h"

#include "support/Arith.h"
#include "support/Check.h"
#include "support/Text.h"

using namespace ccal;

namespace {
constexpr unsigned MaxCallDepth = 256;
} // namespace

struct Interp::ExecState {
  const FuncDecl *F = nullptr;
  std::vector<std::int64_t> Slots;
  std::int64_t RetVal = 0;
};

Interp::Interp(const ClightModule &M, PrimHandler Prims, InterpOptions Opts)
    : M(M), Prims(std::move(Prims)), Opts(Opts) {
  int Addr = 0;
  for (const GlobalDecl &G : M.Globals) {
    GlobalLayout.emplace(G.Name, std::make_pair(Addr, G.Size));
    for (std::int64_t V : G.Init)
      Globals.push_back(V);
    Addr += G.Size;
  }
}

int Interp::globalAddr(const std::string &Name) const {
  auto It = GlobalLayout.find(Name);
  CCAL_CHECK(It != GlobalLayout.end(), "unknown global");
  return It->second.first;
}

void Interp::fail(int Line, const std::string &Msg) {
  if (Err.empty())
    Err = strFormat("line %d: %s", Line, Msg.c_str());
}

std::optional<std::int64_t>
Interp::call(const std::string &Fn, std::vector<std::int64_t> Args) {
  Err.clear();
  Steps = 0;
  const FuncDecl *F = M.findFunc(Fn);
  if (!F || F->IsExtern) {
    Err = "no defined function '" + Fn + "'";
    return std::nullopt;
  }
  return callFunction(*F, std::move(Args));
}

std::optional<std::int64_t>
Interp::callFunction(const FuncDecl &F, std::vector<std::int64_t> Args) {
  if (++CallDepth > MaxCallDepth) {
    --CallDepth;
    fail(F.Line, "call depth exceeded");
    return std::nullopt;
  }
  ExecState ES;
  ES.F = &F;
  ES.Slots.assign(static_cast<size_t>(F.NumSlots), 0);
  CCAL_CHECK(Args.size() == F.Params.size(), "arity checked before call");
  for (size_t I = 0; I != Args.size(); ++I)
    ES.Slots[I] = Args[I];
  Flow FlowOut = execStmt(*F.Body, ES);
  --CallDepth;
  if (FlowOut == Flow::Error)
    return std::nullopt;
  // Falling off the end returns 0 (void functions always do).
  return FlowOut == Flow::Returned ? ES.RetVal : 0;
}

Interp::Flow Interp::execStmt(const Stmt &S, ExecState &ES) {
  if (++Steps > Opts.MaxSteps) {
    fail(S.Line, "step limit exceeded (possible divergence)");
    return Flow::Error;
  }
  switch (S.K) {
  case Stmt::Kind::Block:
    for (const StmtPtr &Child : S.Body) {
      Flow F = execStmt(*Child, ES);
      if (F != Flow::Normal)
        return F;
    }
    return Flow::Normal;
  case Stmt::Kind::If: {
    std::optional<std::int64_t> C = evalExpr(*S.Cond, ES);
    if (!C)
      return Flow::Error;
    if (*C != 0)
      return execStmt(*S.Then, ES);
    if (S.Else)
      return execStmt(*S.Else, ES);
    return Flow::Normal;
  }
  case Stmt::Kind::While:
    while (true) {
      if (++Steps > Opts.MaxSteps) {
        fail(S.Line, "step limit exceeded (possible divergence)");
        return Flow::Error;
      }
      std::optional<std::int64_t> C = evalExpr(*S.Cond, ES);
      if (!C)
        return Flow::Error;
      if (*C == 0)
        return Flow::Normal;
      Flow F = execStmt(*S.Then, ES);
      if (F == Flow::Broke)
        return Flow::Normal;
      if (F == Flow::Returned || F == Flow::Error)
        return F;
      // Normal and Continued both re-test the condition.
    }
  case Stmt::Kind::Return:
    if (S.A) {
      std::optional<std::int64_t> V = evalExpr(*S.A, ES);
      if (!V)
        return Flow::Error;
      ES.RetVal = *V;
    } else {
      ES.RetVal = 0;
    }
    return Flow::Returned;
  case Stmt::Kind::LocalDecl: {
    std::int64_t V = 0;
    if (S.A) {
      std::optional<std::int64_t> E = evalExpr(*S.A, ES);
      if (!E)
        return Flow::Error;
      V = *E;
    }
    CCAL_CHECK(S.LocalSlot >= 0 &&
                   static_cast<size_t>(S.LocalSlot) < ES.Slots.size(),
               "local slot out of range");
    ES.Slots[static_cast<size_t>(S.LocalSlot)] = V;
    return Flow::Normal;
  }
  case Stmt::Kind::Assign: {
    std::optional<std::int64_t> V = evalExpr(*S.A, ES);
    if (!V)
      return Flow::Error;
    if (S.LocalSlot >= 0) {
      ES.Slots[static_cast<size_t>(S.LocalSlot)] = *V;
      return Flow::Normal;
    }
    auto It = GlobalLayout.find(S.Name);
    CCAL_CHECK(It != GlobalLayout.end(), "resolved global must exist");
    Globals[static_cast<size_t>(It->second.first)] = *V;
    return Flow::Normal;
  }
  case Stmt::Kind::IndexAssign: {
    std::optional<std::int64_t> Idx = evalExpr(*S.B, ES);
    if (!Idx)
      return Flow::Error;
    std::optional<std::int64_t> V = evalExpr(*S.A, ES);
    if (!V)
      return Flow::Error;
    auto It = GlobalLayout.find(S.Name);
    CCAL_CHECK(It != GlobalLayout.end(), "resolved global must exist");
    auto [Base, Size] = It->second;
    if (*Idx < 0 || *Idx >= Size) {
      fail(S.Line, strFormat("index %lld out of bounds for '%s'[%d]",
                             static_cast<long long>(*Idx), S.Name.c_str(),
                             Size));
      return Flow::Error;
    }
    Globals[static_cast<size_t>(Base + *Idx)] = *V;
    return Flow::Normal;
  }
  case Stmt::Kind::ExprStmt:
    return evalExpr(*S.A, ES) ? Flow::Normal : Flow::Error;
  case Stmt::Kind::Break:
    return Flow::Broke;
  case Stmt::Kind::Continue:
    return Flow::Continued;
  }
  CCAL_UNREACHABLE("unknown statement kind");
}

std::optional<std::int64_t> Interp::evalExpr(const Expr &E, ExecState &ES) {
  if (++Steps > Opts.MaxSteps) {
    fail(E.Line, "step limit exceeded (possible divergence)");
    return std::nullopt;
  }
  switch (E.K) {
  case Expr::Kind::IntLit:
    return E.IntVal;
  case Expr::Kind::Var:
    if (E.LocalSlot >= 0)
      return ES.Slots[static_cast<size_t>(E.LocalSlot)];
    return Globals[static_cast<size_t>(globalAddr(E.Name))];
  case Expr::Kind::Index: {
    std::optional<std::int64_t> Idx = evalExpr(*E.Args[0], ES);
    if (!Idx)
      return std::nullopt;
    auto It = GlobalLayout.find(E.Name);
    CCAL_CHECK(It != GlobalLayout.end(), "resolved global must exist");
    auto [Base, Size] = It->second;
    if (*Idx < 0 || *Idx >= Size) {
      fail(E.Line, strFormat("index %lld out of bounds for '%s'[%d]",
                             static_cast<long long>(*Idx), E.Name.c_str(),
                             Size));
      return std::nullopt;
    }
    return Globals[static_cast<size_t>(Base + *Idx)];
  }
  case Expr::Kind::Call: {
    std::vector<std::int64_t> Args;
    Args.reserve(E.Args.size());
    for (const ExprPtr &A : E.Args) {
      std::optional<std::int64_t> V = evalExpr(*A, ES);
      if (!V)
        return std::nullopt;
      Args.push_back(*V);
    }
    if (E.CalleeExtern) {
      std::optional<std::int64_t> Ret = Prims(E.Name, Args);
      if (!Ret) {
        fail(E.Line, "primitive '" + E.Name + "' got stuck");
        return std::nullopt;
      }
      Trace.push_back({E.Name, Args, *Ret});
      return *Ret;
    }
    const FuncDecl *F = M.findFunc(E.Name);
    CCAL_CHECK(F && !F->IsExtern, "resolved callee must be defined");
    return callFunction(*F, std::move(Args));
  }
  case Expr::Kind::Unary: {
    if (E.Op == "!") {
      std::optional<std::int64_t> V = evalExpr(*E.Args[0], ES);
      if (!V)
        return std::nullopt;
      return *V == 0 ? 1 : 0;
    }
    CCAL_CHECK(E.Op == "-", "unknown unary operator");
    std::optional<std::int64_t> V = evalExpr(*E.Args[0], ES);
    if (!V)
      return std::nullopt;
    return wrapNeg(*V);
  }
  case Expr::Kind::Binary: {
    // Short-circuit forms first.
    if (E.Op == "&&") {
      std::optional<std::int64_t> L = evalExpr(*E.Args[0], ES);
      if (!L)
        return std::nullopt;
      if (*L == 0)
        return 0;
      std::optional<std::int64_t> R = evalExpr(*E.Args[1], ES);
      if (!R)
        return std::nullopt;
      return *R != 0 ? 1 : 0;
    }
    if (E.Op == "||") {
      std::optional<std::int64_t> L = evalExpr(*E.Args[0], ES);
      if (!L)
        return std::nullopt;
      if (*L != 0)
        return 1;
      std::optional<std::int64_t> R = evalExpr(*E.Args[1], ES);
      if (!R)
        return std::nullopt;
      return *R != 0 ? 1 : 0;
    }
    std::optional<std::int64_t> L = evalExpr(*E.Args[0], ES);
    if (!L)
      return std::nullopt;
    std::optional<std::int64_t> R = evalExpr(*E.Args[1], ES);
    if (!R)
      return std::nullopt;
    std::int64_t A = *L, B = *R;
    if (E.Op == "+")
      return wrapAdd(A, B);
    if (E.Op == "-")
      return wrapSub(A, B);
    if (E.Op == "*")
      return wrapMul(A, B);
    if (E.Op == "/" || E.Op == "%") {
      if (B == 0) {
        fail(E.Line, "division by zero");
        return std::nullopt;
      }
      return E.Op == "/" ? wrapDiv(A, B) : wrapMod(A, B);
    }
    if (E.Op == "==")
      return A == B ? 1 : 0;
    if (E.Op == "!=")
      return A != B ? 1 : 0;
    if (E.Op == "<")
      return A < B ? 1 : 0;
    if (E.Op == "<=")
      return A <= B ? 1 : 0;
    if (E.Op == ">")
      return A > B ? 1 : 0;
    if (E.Op == ">=")
      return A >= B ? 1 : 0;
    CCAL_UNREACHABLE("unknown binary operator");
  }
  }
  CCAL_UNREACHABLE("unknown expression kind");
}
