//===- compcertx/Optimize.cpp - LAsm peephole optimizer -----------------------===//

#include "compcertx/Optimize.h"

#include "obs/Metrics.h"
#include "obs/Trace.h"
#include "support/Arith.h"
#include "support/Check.h"

#include <optional>
#include <set>

using namespace ccal;

namespace {

bool isBranch(Opcode Op) {
  return Op == Opcode::Jmp || Op == Opcode::Jz || Op == Opcode::Jnz;
}

/// Folds `A op B`; returns std::nullopt when the operator is not a pure
/// total binary operation on these operands (division by zero traps and
/// must be preserved).
std::optional<std::int64_t> foldBinary(Opcode Op, std::int64_t A,
                                       std::int64_t B) {
  switch (Op) {
  case Opcode::Add:
    return wrapAdd(A, B);
  case Opcode::Sub:
    return wrapSub(A, B);
  case Opcode::Mul:
    return wrapMul(A, B);
  case Opcode::Div:
    return B == 0 ? std::nullopt : std::optional<std::int64_t>(wrapDiv(A, B));
  case Opcode::Mod:
    return B == 0 ? std::nullopt : std::optional<std::int64_t>(wrapMod(A, B));
  case Opcode::Eq:
    return A == B ? 1 : 0;
  case Opcode::Ne:
    return A != B ? 1 : 0;
  case Opcode::Lt:
    return A < B ? 1 : 0;
  case Opcode::Le:
    return A <= B ? 1 : 0;
  case Opcode::Gt:
    return A > B ? 1 : 0;
  case Opcode::Ge:
    return A >= B ? 1 : 0;
  default:
    return std::nullopt;
  }
}

/// The logical negation of a comparison opcode, if any.
std::optional<Opcode> negatedCompare(Opcode Op) {
  switch (Op) {
  case Opcode::Eq:
    return Opcode::Ne;
  case Opcode::Ne:
    return Opcode::Eq;
  case Opcode::Lt:
    return Opcode::Ge;
  case Opcode::Le:
    return Opcode::Gt;
  case Opcode::Gt:
    return Opcode::Le;
  case Opcode::Ge:
    return Opcode::Lt;
  default:
    return std::nullopt;
  }
}

/// One rewrite pass; returns true when anything changed.
bool runPass(AsmFunc &F, OptimizeStats &Stats) {
  const std::vector<Instr> &Code = F.Code;
  size_t N = Code.size();

  std::set<std::int32_t> Targets;
  for (const Instr &I : Code)
    if (isBranch(I.Op))
      Targets.insert(I.Target);

  // A window starting at i may consume instructions i+1.. only when none
  // of them is a branch target (a branch into the middle of a rewritten
  // window would observe a different operand stack).
  auto Free = [&](size_t Idx) {
    return !Targets.count(static_cast<std::int32_t>(Idx));
  };

  std::vector<Instr> Out;
  std::vector<std::int32_t> OldToNew(N + 1, 0);
  bool Changed = false;

  size_t I = 0;
  while (I < N) {
    OldToNew[I] = static_cast<std::int32_t>(Out.size());
    const Instr &A = Code[I];

    // push a; push b; <binop>  ->  push (a op b)
    if (A.Op == Opcode::Push && I + 2 < N && Free(I + 1) && Free(I + 2) &&
        Code[I + 1].Op == Opcode::Push) {
      std::optional<std::int64_t> V =
          foldBinary(Code[I + 2].Op, A.Imm, Code[I + 1].Imm);
      if (V) {
        OldToNew[I + 1] = static_cast<std::int32_t>(Out.size());
        OldToNew[I + 2] = static_cast<std::int32_t>(Out.size());
        Out.push_back(Instr::push(*V));
        ++Stats.Folded;
        Changed = true;
        I += 3;
        continue;
      }
    }

    // push v; not/neg  ->  push (!v / -v)
    if (A.Op == Opcode::Push && I + 1 < N && Free(I + 1) &&
        (Code[I + 1].Op == Opcode::Not || Code[I + 1].Op == Opcode::Neg)) {
      std::int64_t V = Code[I + 1].Op == Opcode::Not ? (A.Imm == 0 ? 1 : 0)
                                                     : wrapNeg(A.Imm);
      OldToNew[I + 1] = static_cast<std::int32_t>(Out.size());
      Out.push_back(Instr::push(V));
      ++Stats.Folded;
      Changed = true;
      I += 2;
      continue;
    }

    // push v; pop  ->  (nothing)
    if (A.Op == Opcode::Push && I + 1 < N && Free(I + 1) &&
        Code[I + 1].Op == Opcode::Pop) {
      OldToNew[I] = static_cast<std::int32_t>(Out.size());
      OldToNew[I + 1] = static_cast<std::int32_t>(Out.size());
      ++Stats.DeadPushes;
      Changed = true;
      I += 2;
      continue;
    }

    // <cmp>; not  ->  <negated cmp>
    if (I + 1 < N && Free(I + 1) && Code[I + 1].Op == Opcode::Not) {
      if (std::optional<Opcode> Neg = negatedCompare(A.Op)) {
        OldToNew[I + 1] = static_cast<std::int32_t>(Out.size());
        Out.push_back(Instr(*Neg));
        ++Stats.FusedCompares;
        Changed = true;
        I += 2;
        continue;
      }
    }

    // push k; jz/jnz L  ->  jmp L or nothing
    if (A.Op == Opcode::Push && I + 1 < N && Free(I + 1) &&
        (Code[I + 1].Op == Opcode::Jz || Code[I + 1].Op == Opcode::Jnz)) {
      bool Taken = Code[I + 1].Op == Opcode::Jz ? A.Imm == 0 : A.Imm != 0;
      OldToNew[I + 1] = static_cast<std::int32_t>(Out.size());
      if (Taken)
        Out.push_back(Instr(Opcode::Jmp, Code[I + 1].Target));
      ++Stats.ConstBranches;
      Changed = true;
      I += 2;
      continue;
    }

    // jmp (next)  ->  (nothing)
    if (A.Op == Opcode::Jmp &&
        A.Target == static_cast<std::int32_t>(I) + 1) {
      ++Stats.JumpThreads;
      Changed = true;
      I += 1;
      continue;
    }

    Out.push_back(A);
    ++I;
  }
  OldToNew[N] = static_cast<std::int32_t>(Out.size());

  if (!Changed)
    return false;

  // Remap branch targets through the deletions.
  for (Instr &Ins : Out) {
    if (!isBranch(Ins.Op))
      continue;
    CCAL_CHECK(Ins.Target >= 0 &&
                   static_cast<size_t>(Ins.Target) < OldToNew.size(),
               "optimizer: branch target out of range");
    Ins.Target = OldToNew[static_cast<size_t>(Ins.Target)];
  }
  F.Code = std::move(Out);
  return true;
}

} // namespace

OptimizeStats ccal::optimizeFunction(AsmFunc &F) {
  OptimizeStats Stats;
  for (unsigned Pass = 0; Pass != 8; ++Pass) {
    ++Stats.Passes;
    if (!runPass(F, Stats))
      break;
  }
  return Stats;
}

OptimizeStats ccal::optimizeProgram(AsmProgram &P) {
  obs::Span OptSpan("compcertx.optimize", "compcertx");
  OptimizeStats Total;
  for (AsmFunc &F : P.Funcs) {
    OptimizeStats S = optimizeFunction(F);
    Total.Folded += S.Folded;
    Total.DeadPushes += S.DeadPushes;
    Total.FusedCompares += S.FusedCompares;
    Total.ConstBranches += S.ConstBranches;
    Total.JumpThreads += S.JumpThreads;
    Total.Passes += S.Passes;
  }
  if (obs::enabled()) {
    obs::counterAdd("compcertx.opt.folded", Total.Folded);
    obs::counterAdd("compcertx.opt.dead_pushes", Total.DeadPushes);
    obs::counterAdd("compcertx.opt.fused_compares", Total.FusedCompares);
    obs::counterAdd("compcertx.opt.const_branches", Total.ConstBranches);
    obs::counterAdd("compcertx.opt.jump_threads", Total.JumpThreads);
  }
  return Total;
}
