//===- FlowState.h - Merge-correct §7.1 stack contexts ---------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The §7.1 approximate stack state for the packed code streams. The
/// paper's linear pass carries at most one forward-branch state and keeps
/// the fallthrough state at joins, so its predictions silently diverge
/// from the other incoming paths after every merge point. FlowState
/// instead runs the dataflow analysis restricted to edges a single
/// in-order pass can honor — fallthrough, *forward* branch and switch
/// edges, and exception-handler entries — merging all recorded incoming
/// states at each join exactly like the worklist verifier does (slotwise,
/// with conflicts widening to Unknown). On a CFG with no backward edges
/// this equals the full fixpoint (the analysis test suite checks that);
/// with backward edges the loop-entry contribution is conservatively
/// dropped on both sides.
///
/// The decompressor reconstructs instructions one at a time and consumes
/// pseudo-opcodes and context ids mid-stream, so it cannot iterate to a
/// backward-edge fixpoint; this restriction is what makes the state
/// exactly reproducible — encoder and decoder run the identical
/// algorithm over the identical instruction sequence, so their contexts
/// can never diverge.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_ANALYSIS_FLOWSTATE_H
#define CJPACK_ANALYSIS_FLOWSTATE_H

#include "bytecode/StackState.h"
#include <map>

namespace cjpack {

/// Merge-correct approximate stack state, advanced in code order.
///
/// Protocol, identical on encoder and decoder:
///   startMethod();
///   seedHandler(pc) for every exception-table entry;
///   per instruction: enterInsn(offset) BEFORE the opcode is
///   encoded/decoded (pseudo-opcode prediction reads the merged state),
///   then apply(insn, types) after.
class FlowState {
public:
  void startMethod();

  /// Records an exception handler entry at \p HandlerPc: one reference
  /// (the thrown object) on the stack.
  void seedHandler(uint32_t HandlerPc);

  /// Merges every recorded incoming edge targeting \p Offset into the
  /// current state. Must be called for each instruction, in code order.
  void enterInsn(uint32_t Offset);

  /// Advances across \p I: applies its stack effect and records its
  /// outgoing forward edges. \p Types may be null when the opcode needs
  /// no extra information.
  void apply(const Insn &I, const InsnTypes *Types);

  /// True when the stack contents at this point are tracked.
  bool isKnown() const { return Known; }

  /// Type at \p Depth from the top; Unknown when untracked or shallower.
  VType top(unsigned Depth = 0) const;

  /// Context id for the §5.1.6 context-split method-reference pools:
  /// one per (top, second) pair of the 7 VType values, plus one for an
  /// unknown state. Values in [0, NumContexts).
  unsigned contextId() const;

  static constexpr unsigned NumContexts = 7 * 7 + 1;

private:
  struct Edge {
    /// True once any incoming state has been merged (distinguishes a
    /// fresh entry from a recorded empty stack).
    bool Recorded = false;
    /// True when incoming states could not be reconciled (depth
    /// mismatch); the join degrades to unknown.
    bool Conflict = false;
    std::vector<VType> Stack;
  };

  void setUnknown();
  /// Records the current state flowing into forward target \p Target.
  void recordEdge(uint32_t From, int32_t Target);
  static void mergeEdge(Edge &E, const std::vector<VType> &Stack);

  std::vector<VType> Stack;
  bool Known = false;
  /// Pending incoming edges keyed by target offset, consumed in order.
  std::map<uint32_t, Edge> Pending;
};

} // namespace cjpack

#endif // CJPACK_ANALYSIS_FLOWSTATE_H
