//===- tests/lasm/vm_test.cpp - LAsm VM tests ----------------------------------===//

#include "lasm/Vm.h"

#include <gtest/gtest.h>

#include <type_traits>

using namespace ccal;

// A Vm borrows its program, so only a program pointer the caller holds
// binds: a temporary one would die before the Vm.
static_assert(std::is_constructible_v<Vm, const AsmProgramPtr &>);
static_assert(std::is_constructible_v<Vm, std::shared_ptr<AsmProgram> &>);
static_assert(!std::is_constructible_v<Vm, AsmProgramPtr>);
static_assert(!std::is_constructible_v<Vm, std::shared_ptr<AsmProgram>>);
static_assert(!std::is_constructible_v<Vm, const AsmProgramPtr &&>);

namespace {

/// Hand-assembles a one-function program.
AsmProgramPtr makeProgram(std::vector<Instr> Code, unsigned Params = 0,
                          unsigned Slots = 0,
                          std::vector<AsmGlobal> Globals = {}) {
  auto P = std::make_shared<AsmProgram>();
  P->Name = "test";
  AsmFunc F;
  F.Name = "main";
  F.NumParams = Params;
  F.NumSlots = Slots < Params ? Params : Slots;
  F.Code = std::move(Code);
  P->Funcs.push_back(std::move(F));
  std::int32_t Addr = 0;
  for (AsmGlobal &G : Globals) {
    G.Addr = Addr;
    Addr += G.Size;
    P->Globals.push_back(G);
  }
  P->Linked = true;
  return P;
}

/// Hand-assembles a program from \p Funcs; Call targets index into it.
AsmProgramPtr makeFuncs(std::vector<AsmFunc> Funcs) {
  auto P = std::make_shared<AsmProgram>();
  P->Name = "test";
  P->Funcs = std::move(Funcs);
  P->Linked = true;
  return P;
}

AsmFunc makeFunc(std::string Name, unsigned Params, unsigned Slots,
                 std::vector<Instr> Code) {
  AsmFunc F;
  F.Name = std::move(Name);
  F.NumParams = Params;
  F.NumSlots = Slots;
  F.Code = std::move(Code);
  return F;
}

/// main() = 7 + f(3), f(x) = g(10 * x, x), g(a, b) = p(a - b) + 100, with
/// a primitive p paused at three frames deep.  main keeps an operand
/// under the call, so each frame must see only its own stack.
AsmProgramPtr makeNested() {
  return makeFuncs(
      {makeFunc("main", 0, 0,
                {Instr::push(7), Instr::push(3), Instr(Opcode::Call, 1),
                 Instr(Opcode::Add), Instr(Opcode::Ret)}),
       makeFunc("f", 1, 2,
                {Instr(Opcode::LoadL, 0), Instr::push(10), Instr(Opcode::Mul),
                 Instr(Opcode::StoreL, 1), Instr(Opcode::LoadL, 1),
                 Instr(Opcode::LoadL, 0), Instr(Opcode::Call, 2),
                 Instr(Opcode::Ret)}),
       makeFunc("g", 2, 2,
                {Instr(Opcode::LoadL, 0), Instr(Opcode::LoadL, 1),
                 Instr(Opcode::Sub), Instr::withSym(Opcode::Prim, "p", 1),
                 Instr::push(100), Instr(Opcode::Add), Instr(Opcode::Ret)})});
}

std::optional<std::int64_t> runMain(AsmProgramPtr P,
                                    std::vector<std::int64_t> Args = {}) {
  Vm M(P);
  M.start("main", std::move(Args));
  std::vector<std::int64_t> Globals = P->initialGlobals();
  Vm::Status St = M.run(Globals, 1u << 16);
  if (St != Vm::Status::Done)
    return std::nullopt;
  return M.result();
}

} // namespace

TEST(VmTest, PushRet) {
  auto P = makeProgram({Instr::push(42), Instr(Opcode::Ret)});
  EXPECT_EQ(runMain(P), 42);
}

TEST(VmTest, Arithmetic) {
  // (7 - 2) * 3 = 15
  auto P = makeProgram({Instr::push(7), Instr::push(2), Instr(Opcode::Sub),
                        Instr::push(3), Instr(Opcode::Mul),
                        Instr(Opcode::Ret)});
  EXPECT_EQ(runMain(P), 15);
}

TEST(VmTest, DivisionByZeroTraps) {
  auto P = makeProgram({Instr::push(1), Instr::push(0), Instr(Opcode::Div),
                        Instr(Opcode::Ret)});
  Vm M(P);
  M.start("main", {});
  std::vector<std::int64_t> Globals;
  EXPECT_EQ(M.run(Globals, 100), Vm::Status::Error);
  EXPECT_NE(M.error().find("division"), std::string::npos);
}

TEST(VmTest, LocalsAndParams) {
  // main(a): local = a + 1; return local * 2
  auto P = makeProgram({Instr(Opcode::LoadL, 0), Instr::push(1),
                        Instr(Opcode::Add), Instr(Opcode::StoreL, 1),
                        Instr(Opcode::LoadL, 1), Instr::push(2),
                        Instr(Opcode::Mul), Instr(Opcode::Ret)},
                       /*Params=*/1, /*Slots=*/2);
  EXPECT_EQ(runMain(P, {20}), 42);
}

TEST(VmTest, GlobalsLoadStore) {
  AsmGlobal G;
  G.Name = "g";
  G.Size = 1;
  G.Init = {7};
  auto P = makeProgram({Instr(Opcode::LoadG, 0), Instr::push(1),
                        Instr(Opcode::Add), Instr(Opcode::StoreG, 0),
                        Instr(Opcode::LoadG, 0), Instr(Opcode::Ret)},
                       0, 0, {G});
  EXPECT_EQ(runMain(P), 8);
}

TEST(VmTest, IndexedGlobalBoundsCheck) {
  AsmGlobal G;
  G.Name = "a";
  G.Size = 3;
  G.Init = {0, 0, 0};
  // a[5] with declared size 3 must trap.
  Instr Bad(Opcode::LoadGI, 0, /*Imm=size*/ 3);
  auto P = makeProgram({Instr::push(5), Bad, Instr(Opcode::Ret)}, 0, 0, {G});
  Vm M(P);
  M.start("main", {});
  std::vector<std::int64_t> Globals = P->initialGlobals();
  EXPECT_EQ(M.run(Globals, 100), Vm::Status::Error);
}

TEST(VmTest, JumpsImplementLoops) {
  // sum 1..n with a Jz loop. slots: 0=n, 1=acc, 2=i
  std::vector<Instr> Code = {
      Instr::push(0), Instr(Opcode::StoreL, 1),   // acc = 0
      Instr::push(1), Instr(Opcode::StoreL, 2),   // i = 1
      // loop head (4): i <= n ?
      Instr(Opcode::LoadL, 2), Instr(Opcode::LoadL, 0), Instr(Opcode::Le),
      Instr(Opcode::Jz, 16),
      Instr(Opcode::LoadL, 1), Instr(Opcode::LoadL, 2), Instr(Opcode::Add),
      Instr(Opcode::StoreL, 1),
      Instr(Opcode::LoadL, 2), Instr::push(1), Instr(Opcode::Add),
      // 15: i = i + 1... wait index
      Instr(Opcode::StoreL, 2),
      // 16 is here only if the count matches; recompute: entries 0..15
  };
  Code.push_back(Instr(Opcode::Jmp, 4));          // 16 -> fix Jz target
  Code.push_back(Instr(Opcode::LoadL, 1));        // 17
  Code.push_back(Instr(Opcode::Ret));             // 18
  Code[7] = Instr(Opcode::Jz, 17);
  auto P = makeProgram(Code, 1, 3);
  EXPECT_EQ(runMain(P, {10}), 55);
}

TEST(VmTest, PrimPausesAndResumes) {
  auto P = makeProgram({Instr::push(5), Instr::withSym(Opcode::Prim, "p", 1),
                        Instr::push(1), Instr(Opcode::Add),
                        Instr(Opcode::Ret)});
  Vm M(P);
  M.start("main", {});
  std::vector<std::int64_t> Globals;
  ASSERT_EQ(M.run(Globals, 100), Vm::Status::AtPrim);
  EXPECT_EQ(M.primName(), "p");
  EXPECT_EQ(M.primArgs(), (std::vector<std::int64_t>{5}));
  M.resumePrim(100);
  ASSERT_EQ(M.run(Globals, 100), Vm::Status::Done);
  EXPECT_EQ(M.result(), 101);
}

TEST(VmTest, CopyableMidExecution) {
  auto P = makeProgram({Instr::push(5), Instr::withSym(Opcode::Prim, "p", 1),
                        Instr(Opcode::Ret)});
  Vm M(P);
  M.start("main", {});
  std::vector<std::int64_t> Globals;
  ASSERT_EQ(M.run(Globals, 100), Vm::Status::AtPrim);

  Vm Copy = M; // snapshot at the query point
  M.resumePrim(1);
  ASSERT_EQ(M.run(Globals, 100), Vm::Status::Done);
  EXPECT_EQ(M.result(), 1);

  Copy.resumePrim(2);
  ASSERT_EQ(Copy.run(Globals, 100), Vm::Status::Done);
  EXPECT_EQ(Copy.result(), 2);
}

TEST(VmTest, CopiesBorrowTheProgram) {
  auto P = makeProgram({Instr::push(1), Instr(Opcode::Ret)});
  Vm M(P);
  std::vector<Vm> Copies(4, M);
  EXPECT_EQ(P.use_count(), 1); // no copy holds a reference
  std::vector<std::int64_t> Globals;
  for (Vm &C : Copies) {
    C.start("main", {});
    ASSERT_EQ(C.run(Globals, 100), Vm::Status::Done);
    EXPECT_EQ(C.result(), 1);
  }
}

TEST(VmTest, BudgetExhaustionTraps) {
  auto P = makeProgram({Instr(Opcode::Jmp, 0)});
  Vm M(P);
  M.start("main", {});
  std::vector<std::int64_t> Globals;
  EXPECT_EQ(M.run(Globals, 100), Vm::Status::Error);
  EXPECT_NE(M.error().find("budget"), std::string::npos);
}

TEST(VmTest, StackUnderflowTraps) {
  auto P = makeProgram({Instr(Opcode::Add), Instr(Opcode::Ret)});
  Vm M(P);
  M.start("main", {});
  std::vector<std::int64_t> Globals;
  EXPECT_EQ(M.run(Globals, 100), Vm::Status::Error);
}

TEST(VmTest, DisassembleRoundTripNames) {
  EXPECT_STREQ(opcodeName(Opcode::Push), "push");
  Instr I = Instr::withSym(Opcode::Prim, "acq", 2);
  EXPECT_EQ(I.toString(), "prim acq/2");
}

TEST(VmTest, NestedCallsAndReturns) {
  auto P = makeNested();
  Vm M(P);
  M.start("main", {});
  std::vector<std::int64_t> Globals;
  ASSERT_EQ(M.run(Globals, 100), Vm::Status::AtPrim);
  EXPECT_EQ(M.frameDepth(), 3u);
  EXPECT_EQ(M.primArgs(), (std::vector<std::int64_t>{27}));

  // A VM that ran elsewhere, copy-assigned the paused one, continues
  // exactly like a fresh copy, and neither disturbs the other.
  Vm Slot(P);
  Slot.start("main", {});
  Vm Fresh = M;
  Slot = M;
  M.resumePrim(27);
  ASSERT_EQ(M.run(Globals, 100), Vm::Status::Done);
  EXPECT_EQ(M.result(), 134);
  EXPECT_EQ(M.frameDepth(), 0u);
  Slot.resumePrim(0);
  ASSERT_EQ(Slot.run(Globals, 100), Vm::Status::Done);
  EXPECT_EQ(Slot.result(), 107);
  Fresh.resumePrim(0);
  ASSERT_EQ(Fresh.run(Globals, 100), Vm::Status::Done);
  EXPECT_EQ(Fresh.result(), 107);
  EXPECT_EQ(Slot.steps(), Fresh.steps());

  // A restarted VM starts from empty frames.
  M.start("main", {});
  ASSERT_EQ(M.run(Globals, 100), Vm::Status::AtPrim);
  EXPECT_EQ(M.frameDepth(), 3u);
  EXPECT_EQ(M.primArgs(), (std::vector<std::int64_t>{27}));
}

TEST(VmTest, CallUnderflowTrapsWithinTheCallersFrame) {
  // f calls g(a, b) with one operand on its own stack; main's operands
  // below f's frame must not stand in for the missing argument.
  auto P = makeFuncs(
      {makeFunc("main", 0, 0,
                {Instr::push(5), Instr::push(6), Instr(Opcode::Call, 1),
                 Instr(Opcode::Ret)}),
       makeFunc("f", 0, 0,
                {Instr::push(1), Instr(Opcode::Call, 2), Instr(Opcode::Ret)}),
       makeFunc("g", 2, 2, {Instr(Opcode::LoadL, 0), Instr(Opcode::Ret)})});
  Vm M(P);
  M.start("main", {});
  std::vector<std::int64_t> Globals;
  EXPECT_EQ(M.run(Globals, 100), Vm::Status::Error);
  EXPECT_EQ(M.error(), "operand stack underflow");
  EXPECT_EQ(M.frameDepth(), 2u); // g's frame was never pushed
}

TEST(VmTest, PrimAndOperatorUnderflowTrapWithinTheFrame) {
  for (Instr Op : {Instr::withSym(Opcode::Prim, "p", 1), Instr(Opcode::Add),
                   Instr(Opcode::Ret)}) {
    auto P = makeFuncs({makeFunc("main", 0, 0,
                                 {Instr::push(5), Instr::push(6),
                                  Instr(Opcode::Call, 1), Instr(Opcode::Ret)}),
                        makeFunc("f", 0, 0, {Op, Instr(Opcode::Ret)})});
    Vm M(P);
    M.start("main", {});
    std::vector<std::int64_t> Globals;
    EXPECT_EQ(M.run(Globals, 100), Vm::Status::Error) << Op.toString();
    EXPECT_EQ(M.error(), "operand stack underflow") << Op.toString();
  }
}

TEST(VmTest, HaltEndsTheRunFromANestedFrame) {
  auto P = makeFuncs(
      {makeFunc("main", 0, 1,
                {Instr::push(1), Instr(Opcode::Call, 1), Instr(Opcode::Ret)}),
       makeFunc("f", 1, 1, {Instr::push(9), Instr(Opcode::Halt)})});
  Vm M(P);
  M.start("main", {});
  std::vector<std::int64_t> Globals;
  ASSERT_EQ(M.run(Globals, 100), Vm::Status::Done);
  EXPECT_EQ(M.frameDepth(), 0u);
  EXPECT_EQ(M.result(), 0); // Halt returns no value
  // The halted VM starts again from empty frames.
  M.start("main", {});
  ASSERT_EQ(M.run(Globals, 100), Vm::Status::Done);
  EXPECT_EQ(M.steps(), 4u);
}
