//===- StackState.h - Approximate JVM stack state (§7.1) -------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary of the paper's approximate stack state (§7.1): the
/// coarse value types, the per-instruction type facts the opcode alone
/// does not give, the families of typed opcodes that collapse under a
/// known stack state, and the shared per-instruction transfer function.
/// FlowState (analysis/FlowState.h) runs that function over a method in
/// code order, identically on the compressor and the decompressor; its
/// state is used (a) to collapse families of typed opcodes (all four
/// additions become one generic pseudo-op when the state predicts the
/// variant) and (b) as the context selector for method-reference MTF
/// queues (§5.1.6).
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_BYTECODE_STACKSTATE_H
#define CJPACK_BYTECODE_STACKSTATE_H

#include "bytecode/Instruction.h"
#include <optional>
#include <vector>

namespace cjpack {

/// Coarse JVM value types tracked on the approximate stack.
enum class VType : uint8_t { Int, Long, Float, Double, Ref, Void, Unknown };

/// Per-instruction type information the stack machine cannot derive from
/// the opcode alone; supplied by the caller (which can see the constant
/// pool or the packed model).
struct InsnTypes {
  /// Type of the constant loaded by ldc / ldc_w / ldc2_w.
  VType ConstType = VType::Unknown;
  /// Argument types of an invoked method (receiver excluded).
  std::vector<VType> ArgTypes;
  /// Return type (VType::Void for void methods).
  VType RetType = VType::Void;
  /// Type of the field accessed by get/putfield, get/putstatic.
  VType FieldType = VType::Unknown;
};

/// Families of typed opcodes collapsible under a known stack state.
enum class OpFamily : uint8_t {
  None,
  Add, Sub, Mul, Div, Rem,   ///< i/l/f/d variants, keyed by top of stack
  Neg,                       ///< keyed by top
  Shl, Shr, UShr,            ///< i/l variants, keyed by second-from-top
  And, Or, Xor,              ///< i/l variants, keyed by top
  Store,                     ///< i/l/f/d/a store <local>, keyed by top
  Store0, Store1, Store2, Store3, ///< *store_N shorthands, keyed by top
  TypedReturn,               ///< i/l/f/d/a return, keyed by top
};

/// Number of OpFamily enumerators (for pseudo-opcode numbering).
inline constexpr unsigned NumOpFamilies =
    static_cast<unsigned>(OpFamily::TypedReturn) + 1;

/// Returns the collapse family of \p O, or OpFamily::None.
OpFamily familyOf(Op O);

/// Stack depth whose type selects the family variant (0 = top).
unsigned familyKeyDepth(OpFamily F);

/// Returns the member of \p F for key type \p T, if one exists.
std::optional<Op> variantFor(OpFamily F, VType T);

/// Applies \p I's operand-stack effect to \p Stack, one element per value
/// (category-2 values occupy a single element). Returns false when the
/// effect cannot be tracked — underflow, a type mismatch against the
/// declared effect, a stack shuffle that would split a category-2 value,
/// or an instruction that invalidates the state (athrow, jsr) — in which
/// case the caller must treat the state as unknown. \p Types may be null
/// when the opcode needs no extra information.
bool applyInsnStackEffect(const Insn &I, const InsnTypes *Types,
                          std::vector<VType> &Stack);

} // namespace cjpack

#endif // CJPACK_BYTECODE_STACKSTATE_H
