//===- lasm/Vm.cpp - LAsm virtual machine -----------------------------------===//

#include "lasm/Vm.h"

#include "core/Log.h"
#include "support/Arith.h"
#include "support/Check.h"
#include "support/Text.h"

#include <algorithm>

using namespace ccal;

void Vm::start(const std::string &Fn, std::vector<std::int64_t> Args) {
  CCAL_CHECK(Prog && Prog->Linked, "VM needs a linked program");
  int Idx = Prog->funcIndex(Fn);
  CCAL_CHECK(Idx >= 0, "VM start: unknown function");
  const AsmFunc &F = Prog->Funcs[static_cast<size_t>(Idx)];
  CCAL_CHECK(Args.size() == F.NumParams, "VM start: wrong arity");

  Frames.clear();
  Slots.clear();
  Operands.clear();
  pushFrame(Idx, F, 0);
  std::copy(Args.begin(), Args.end(), Slots.begin());
  St = Status::Ready;
  Result = 0;
  Err.clear();
  Steps = 0;
}

void Vm::pushFrame(std::int32_t Func, const AsmFunc &F, size_t StackBase) {
  // The arguments are copied into the frame's first locals.
  CCAL_CHECK(F.NumSlots >= F.NumParams, "VM: fewer locals than parameters");
  Frames.push_back(Frame{Func, 0, static_cast<std::uint32_t>(Slots.size()),
                         static_cast<std::uint32_t>(StackBase)});
  Slots.resize(Slots.size() + F.NumSlots, 0);
}

void Vm::trap(const std::string &Msg) {
  St = Status::Error;
  if (Err.empty())
    Err = Msg;
}

bool Vm::pop(std::int64_t &V) {
  if (operandCount() == 0) {
    trap("operand stack underflow");
    return false;
  }
  V = Operands.back();
  Operands.pop_back();
  return true;
}

Vm::Status Vm::run(std::vector<std::int64_t> &Globals,
                   std::uint64_t MaxSteps) {
  bool Exhausted = false;
  Status S = runBounded(Globals, MaxSteps, Exhausted);
  if (Exhausted) {
    trap("instruction budget exhausted (possible divergence)");
    return St;
  }
  return S;
}

Vm::Status Vm::runBounded(std::vector<std::int64_t> &Globals,
                          std::uint64_t MaxSteps, bool &Exhausted) {
  CCAL_CHECK(St == Status::Ready || St == Status::AtPrim,
             "VM run: not runnable");
  CCAL_CHECK(St != Status::AtPrim || PrimKind.empty(),
             "VM run: pending primitive not resumed");
  St = Status::Ready;
  Exhausted = false;

  std::uint64_t Budget = MaxSteps;
  while (true) {
    if (Frames.empty()) {
      St = Status::Done;
      return St;
    }
    if (Budget-- == 0) {
      Exhausted = true;
      return St;
    }
    ++Steps;

    Frame &F = Frames.back();
    const AsmFunc &Fn = Prog->Funcs[static_cast<size_t>(F.Func)];
    if (F.PC < 0 || static_cast<size_t>(F.PC) >= Fn.Code.size()) {
      trap("program counter out of range");
      return St;
    }
    const Instr &I = Fn.Code[static_cast<size_t>(F.PC)];
    ++F.PC;

    auto Binary = [&](auto Apply) {
      std::int64_t B, A;
      if (!pop(B) || !pop(A))
        return;
      Operands.push_back(Apply(A, B));
    };
    // The top frame's locals are the tail of Slots.
    auto LocalInRange = [&](std::int32_t Slot) {
      return Slot >= 0 &&
             static_cast<size_t>(Slot) < Slots.size() - F.SlotBase;
    };

    switch (I.Op) {
    case Opcode::Push:
      Operands.push_back(I.Imm);
      break;
    case Opcode::Pop: {
      std::int64_t V;
      pop(V);
      break;
    }
    case Opcode::LoadL:
      if (!LocalInRange(I.Target)) {
        trap("local slot out of range");
        break;
      }
      Operands.push_back(Slots[F.SlotBase + static_cast<size_t>(I.Target)]);
      break;
    case Opcode::StoreL: {
      std::int64_t V;
      if (!pop(V))
        break;
      if (!LocalInRange(I.Target)) {
        trap("local slot out of range");
        break;
      }
      Slots[F.SlotBase + static_cast<size_t>(I.Target)] = V;
      break;
    }
    case Opcode::LoadG:
      if (I.Target < 0 || static_cast<size_t>(I.Target) >= Globals.size()) {
        trap("global address out of range");
        break;
      }
      Operands.push_back(Globals[static_cast<size_t>(I.Target)]);
      break;
    case Opcode::StoreG: {
      std::int64_t V;
      if (!pop(V))
        break;
      if (I.Target < 0 || static_cast<size_t>(I.Target) >= Globals.size()) {
        trap("global address out of range");
        break;
      }
      Globals[static_cast<size_t>(I.Target)] = V;
      break;
    }
    case Opcode::LoadGI: {
      std::int64_t Idx;
      if (!pop(Idx))
        break;
      if (Idx < 0 || Idx >= I.Imm) {
        trap(strFormat("array index %lld out of bounds (size %lld)",
                       static_cast<long long>(Idx),
                       static_cast<long long>(I.Imm)));
        break;
      }
      size_t Addr = static_cast<size_t>(I.Target + Idx);
      if (Addr >= Globals.size()) {
        trap("global address out of range");
        break;
      }
      Operands.push_back(Globals[Addr]);
      break;
    }
    case Opcode::StoreGI: {
      std::int64_t V, Idx;
      if (!pop(V) || !pop(Idx))
        break;
      if (Idx < 0 || Idx >= I.Imm) {
        trap(strFormat("array index %lld out of bounds (size %lld)",
                       static_cast<long long>(Idx),
                       static_cast<long long>(I.Imm)));
        break;
      }
      size_t Addr = static_cast<size_t>(I.Target + Idx);
      if (Addr >= Globals.size()) {
        trap("global address out of range");
        break;
      }
      Globals[Addr] = V;
      break;
    }
    case Opcode::Add:
      Binary([](std::int64_t A, std::int64_t B) { return wrapAdd(A, B); });
      break;
    case Opcode::Sub:
      Binary([](std::int64_t A, std::int64_t B) { return wrapSub(A, B); });
      break;
    case Opcode::Mul:
      Binary([](std::int64_t A, std::int64_t B) { return wrapMul(A, B); });
      break;
    case Opcode::Div:
    case Opcode::Mod: {
      std::int64_t B, A;
      if (!pop(B) || !pop(A))
        break;
      if (B == 0) {
        trap("division by zero");
        break;
      }
      Operands.push_back(I.Op == Opcode::Div ? wrapDiv(A, B) : wrapMod(A, B));
      break;
    }
    case Opcode::Eq:
      Binary([](std::int64_t A, std::int64_t B) { return A == B ? 1 : 0; });
      break;
    case Opcode::Ne:
      Binary([](std::int64_t A, std::int64_t B) { return A != B ? 1 : 0; });
      break;
    case Opcode::Lt:
      Binary([](std::int64_t A, std::int64_t B) { return A < B ? 1 : 0; });
      break;
    case Opcode::Le:
      Binary([](std::int64_t A, std::int64_t B) { return A <= B ? 1 : 0; });
      break;
    case Opcode::Gt:
      Binary([](std::int64_t A, std::int64_t B) { return A > B ? 1 : 0; });
      break;
    case Opcode::Ge:
      Binary([](std::int64_t A, std::int64_t B) { return A >= B ? 1 : 0; });
      break;
    case Opcode::Not: {
      std::int64_t V;
      if (!pop(V))
        break;
      Operands.push_back(V == 0 ? 1 : 0);
      break;
    }
    case Opcode::Neg: {
      std::int64_t V;
      if (!pop(V))
        break;
      Operands.push_back(wrapNeg(V));
      break;
    }
    case Opcode::Jmp:
      F.PC = I.Target;
      break;
    case Opcode::Jz: {
      std::int64_t V;
      if (!pop(V))
        break;
      if (V == 0)
        F.PC = I.Target;
      break;
    }
    case Opcode::Jnz: {
      std::int64_t V;
      if (!pop(V))
        break;
      if (V != 0)
        F.PC = I.Target;
      break;
    }
    case Opcode::Call: {
      if (I.Target < 0 ||
          static_cast<size_t>(I.Target) >= Prog->Funcs.size()) {
        trap("call target out of range (unlinked program?)");
        break;
      }
      const AsmFunc &Callee = Prog->Funcs[static_cast<size_t>(I.Target)];
      if (operandCount() < Callee.NumParams) {
        trap("operand stack underflow");
        break;
      }
      // Arguments were pushed left to right, so they sit on top of the
      // caller's stack in parameter order: they move into the callee's
      // first locals, and the callee's stack starts where they were.
      const size_t ArgBase = Operands.size() - Callee.NumParams;
      const size_t SlotBase = Slots.size();
      pushFrame(I.Target, Callee, ArgBase);
      std::copy(Operands.begin() + static_cast<std::ptrdiff_t>(ArgBase),
                Operands.end(),
                Slots.begin() + static_cast<std::ptrdiff_t>(SlotBase));
      Operands.resize(ArgBase);
      break;
    }
    case Opcode::Prim: {
      PrimKind = I.SymId;
      const size_t NumArgs = I.Imm > 0 ? static_cast<size_t>(I.Imm) : 0;
      if (operandCount() < NumArgs) {
        trap("operand stack underflow");
        break;
      }
      const auto ArgBegin =
          Operands.end() - static_cast<std::ptrdiff_t>(NumArgs);
      PrimArgVals.assign(ArgBegin, Operands.end());
      Operands.erase(ArgBegin, Operands.end());
      St = Status::AtPrim;
      return St;
    }
    case Opcode::Ret: {
      std::int64_t V;
      if (!pop(V))
        break;
      // The frame's locals and what is left of its stack go with it.
      Slots.resize(F.SlotBase);
      Operands.resize(F.StackBase);
      Frames.pop_back();
      if (Frames.empty()) {
        Result = V;
        St = Status::Done;
        return St;
      }
      Operands.push_back(V);
      break;
    }
    case Opcode::Halt:
      St = Status::Done;
      Frames.clear();
      Slots.clear();
      Operands.clear();
      return St;
    }

    if (St == Status::Error)
      return St;
  }
}

void Vm::resumePrim(std::int64_t Ret) {
  CCAL_CHECK(St == Status::AtPrim, "resumePrim: VM is not at a primitive");
  CCAL_CHECK(!Frames.empty(), "resumePrim: no live frame");
  Operands.push_back(Ret);
  PrimKind = KindId();
  PrimArgVals.clear();
}
