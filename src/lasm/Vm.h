//===- lasm/Vm.h - LAsm virtual machine ------------------------*- C++ -*-===//
//
// Part of ccal, a C++ reproduction of "Certified Concurrent Abstraction
// Layers" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The LAsm virtual machine: a small-step, *copyable* execution state, so
/// the multicore Explorer can snapshot a machine at every interleaving
/// point and enumerate hardware schedules by depth-first search — the
/// executable counterpart of quantifying over all interleavings in Coq.
///
/// The VM pauses at every Prim instruction and hands the call to its
/// driver: the driver decides (via the layer interface) whether the
/// primitive is private (executed silently) or shared (a query point that
/// appends events to the global log, §3.1).  CPU-local global memory is
/// owned by the driver and passed into run(), because threads on the same
/// CPU share it (§5.5) while each keeps its own frame stack.
///
//===----------------------------------------------------------------------===//

#ifndef CCAL_LASM_VM_H
#define CCAL_LASM_VM_H

#include "lasm/Program.h"

#include <optional>
#include <string>
#include <vector>

namespace ccal {

/// Execution state of one hardware thread over a linked AsmProgram.
/// Copying a Vm copies the whole frame stack; the program is borrowed, so
/// a copy touches no reference count and the program must outlive the Vm
/// and every copy of it.
///
/// The locals and operand stacks of all frames live in two flat vectors,
/// each frame recording where its own part begins.  A call appends to
/// them and a return truncates them, so once they have grown to the
/// deepest call a run makes, calls allocate nothing; a copy is three
/// vectors whatever the call depth, and copy-assigning into a Vm reuses
/// the storage it already holds.
class Vm {
public:
  enum class Status {
    Ready,  ///< start() not yet called
    AtPrim, ///< paused at a Prim instruction; resumePrim() to continue
    Done,   ///< entry function returned; result() is valid
    Error,  ///< trapped; error() is valid
  };

  /// Borrows \p Prog, which the caller keeps alive.
  explicit Vm(const AsmProgramPtr &Prog) : Prog(Prog.get()) {}
  /// A temporary program pointer would die before the Vm: no binding.
  template <typename T> Vm(const std::shared_ptr<T> &&) = delete;

  /// Prepares a run of function \p Fn; aborts when unknown or wrong arity.
  void start(const std::string &Fn, std::vector<std::int64_t> Args);

  /// Executes instructions until a Prim, completion, a trap, or the step
  /// budget runs out (which is a trap: divergence).  \p Globals is the
  /// CPU-local memory image, shared with other threads of the same CPU.
  Status run(std::vector<std::int64_t> &Globals, std::uint64_t MaxSteps);

  /// Like run() but stops after \p MaxSteps without trapping, reporting
  /// via \p Exhausted — the hardware-machine mode (Mx86, §3.1), where the
  /// scheduler may preempt between any two instructions.
  Status runBounded(std::vector<std::int64_t> &Globals,
                    std::uint64_t MaxSteps, bool &Exhausted);

  /// Valid while AtPrim.  The reference is stable (interned storage).
  const std::string &primName() const { return PrimKind.str(); }
  /// Interned form of primName() — the machines' O(1) layer-lookup key.
  KindId primKind() const { return PrimKind; }
  const std::vector<std::int64_t> &primArgs() const { return PrimArgVals; }

  /// Delivers the primitive's return value and resumes.
  void resumePrim(std::int64_t Ret);

  Status status() const { return St; }
  std::int64_t result() const { return Result; }
  const std::string &error() const { return Err; }

  /// Total instructions executed since start().
  std::uint64_t steps() const { return Steps; }

  /// Number of live frames (the merged-stack demo reads this).
  size_t frameDepth() const { return Frames.size(); }

private:
  struct Frame {
    std::int32_t Func = 0;
    std::int32_t PC = 0;
    std::uint32_t SlotBase = 0;  ///< first local of this frame in Slots
    std::uint32_t StackBase = 0; ///< bottom of its operand stack in Operands
  };

  void trap(const std::string &Msg);
  bool pop(std::int64_t &V);
  /// Pushes a frame for function \p Func whose locals start zeroed and
  /// whose operand stack starts at \p StackBase.
  void pushFrame(std::int32_t Func, const AsmFunc &F, size_t StackBase);
  /// Operands on the top frame's stack.
  size_t operandCount() const {
    return Operands.size() - Frames.back().StackBase;
  }

  const AsmProgram *Prog;
  std::vector<Frame> Frames;
  std::vector<std::int64_t> Slots;    ///< every frame's locals, in order
  std::vector<std::int64_t> Operands; ///< every frame's operand stack
  Status St = Status::Ready;
  std::int64_t Result = 0;
  std::string Err;
  KindId PrimKind; ///< pending primitive while AtPrim (default: "")
  std::vector<std::int64_t> PrimArgVals;
  std::uint64_t Steps = 0;
};

} // namespace ccal

#endif // CCAL_LASM_VM_H
