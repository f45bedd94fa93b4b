//===- Opcodes.h - JVM opcode table ----------------------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The JVM instruction set: opcode enumerators, operand formats, and the
/// static per-opcode information (mnemonic, fixed stack effect, the kind
/// of constant-pool reference carried) used by the instruction codec, the
/// stack-state machine, and the packed bytecode encoder.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_BYTECODE_OPCODES_H
#define CJPACK_BYTECODE_OPCODES_H

#include <cstdint>

namespace cjpack {

/// JVM opcodes, named per the spec mnemonics.
enum class Op : uint8_t {
#define CJPACK_OPCODE(NUM, ENUM, MNEMONIC, FORMAT, POPS, PUSHES) ENUM = NUM,
#include "bytecode/Opcodes.def"
};

/// Highest defined opcode value (jsr_w).
inline constexpr uint8_t MaxOpcode = 201;

/// Operand layout following an opcode byte.
enum class OpFormat : uint8_t {
  None,            ///< no operands
  S1,              ///< one signed byte (bipush)
  S2,              ///< one signed short (sipush)
  LocalU1,         ///< unsigned local-variable index byte
  CpU1,            ///< one-byte constant-pool index (ldc)
  CpU2,            ///< two-byte constant-pool index
  Branch2,         ///< signed 16-bit branch offset
  Branch4,         ///< signed 32-bit branch offset
  Iinc,            ///< local index byte + signed increment byte
  NewArrayType,    ///< primitive array type code byte
  InvokeInterface, ///< u2 cp index, u1 count, u1 zero
  InvokeDynamic,   ///< u2 cp index, two zero bytes
  MultiANewArray,  ///< u2 cp index, u1 dimension count
  TableSwitch,     ///< padded, default + low/high + jump table
  LookupSwitch,    ///< padded, default + match/offset pairs
  Wide,            ///< prefix modifying the following instruction
};

/// The kind of constant-pool entry an instruction's cp operand names.
/// Drives the choice of reference stream / MTF pool in the packed format
/// (the paper keeps separate pools per method kind and field kind, §5.1).
enum class CpRefKind : uint8_t {
  None,
  FieldInstance, ///< getfield / putfield
  FieldStatic,   ///< getstatic / putstatic
  MethodVirtual,
  MethodSpecial,
  MethodStatic,
  MethodInterface,
  ClassRef,      ///< new, anewarray, checkcast, instanceof, multianewarray
  LoadConst,     ///< ldc / ldc_w (int, float, or string entry)
  LoadConst2,    ///< ldc2_w (long or double entry)
};

/// Static description of one opcode.
struct OpInfo {
  const char *Mnemonic;
  OpFormat Format;
  /// Fixed pop/push type strings over {I,J,F,D,A}; "*" when the effect
  /// depends on operands and is handled specially by applyInsnStackEffect.
  const char *Pops;
  const char *Pushes;
};

/// Returns the static info for \p Opcode (valid for 0..MaxOpcode).
const OpInfo &opInfo(uint8_t Opcode);
inline const OpInfo &opInfo(Op O) { return opInfo(static_cast<uint8_t>(O)); }

/// True if \p Opcode is a defined JVM instruction.
inline bool isValidOpcode(uint8_t Opcode) { return Opcode <= MaxOpcode; }

/// Returns the kind of constant-pool reference \p Opcode carries
/// (CpRefKind::None for instructions without a cp operand).
CpRefKind cpRefKind(Op O);

/// For iload/istore-style instructions with implicit or explicit local
/// operands, returns true and sets \p Index for the _0.._3 shorthands.
bool implicitLocalIndex(Op O, uint32_t &Index);

} // namespace cjpack

#endif // CJPACK_BYTECODE_OPCODES_H
