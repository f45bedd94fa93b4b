//===- Transform.h - Classfile preprocessing (§2, §9) ----------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's baseline preprocessing of classfiles (§2):
///
///  * strip LineNumberTable, LocalVariableTable, SourceFile, and any
///    attribute the packed format does not recognize (whose constant-pool
///    references could not be renumbered);
///  * garbage-collect the constant pool;
///  * sort entries by type, Utf8 entries by content;
///  * assign int/float/string constants the smallest indices so every
///    `ldc` operand fits in one byte (§9).
///
/// These transforms alone give the ~20% jar-size improvement the paper
/// reports before any new techniques are applied.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CLASSFILE_TRANSFORM_H
#define CJPACK_CLASSFILE_TRANSFORM_H

#include "bytecode/Instruction.h"
#include "classfile/ClassFile.h"
#include "support/Error.h"

namespace cjpack {

/// Attributes the packed format understands; everything else is dropped
/// by stripForPacking.
bool isRecognizedAttribute(std::string_view Name);

/// Removes debug attributes (LineNumberTable, LocalVariableTable,
/// SourceFile) and, when \p DropUnrecognized, every attribute outside
/// the recognized set — including all attributes nested in Code.
void stripDebugInfo(ClassFile &CF, bool DropUnrecognized = true);

/// Garbage-collects and canonically re-orders the constant pool,
/// renumbering every reference (including inside bytecode). Requires
/// unrecognized attributes to have been stripped first; fails otherwise
/// and on malformed bytecode. A class whose pool is already canonical is
/// left exactly as it is.
Error canonicalizeConstantPool(ClassFile &CF);

/// Every Code attribute of a class in decoded form: the instructions of
/// all methods back to back, and where each method's slice belongs.
struct DecodedCode {
  struct Body {
    uint32_t Method = 0;    ///< index into ClassFile::Methods
    uint32_t Attribute = 0; ///< index of its "Code" attribute there
    /// Stack and locals, exception table, nested attributes. Header.Code
    /// is not read: the code array is Insns[Begin, End).
    CodeAttribute Header;
    uint32_t Begin = 0, End = 0;
  };
  std::vector<Body> Bodies;
  std::vector<Insn> Insns;
};

/// canonicalizeConstantPool for a class whose Code attributes are given
/// decoded (constant-pool operands numbered by CF.CP): the attributes
/// named by \p Code are placeholders, and each is encoded once, with its
/// final indices. This is how unpacking builds the canonical pool.
Error canonicalizeConstantPool(ClassFile &CF, DecodedCode &&Code);

/// stripDebugInfo + canonicalizeConstantPool.
Error prepareForPacking(ClassFile &CF);

} // namespace cjpack

#endif // CJPACK_CLASSFILE_TRANSFORM_H
