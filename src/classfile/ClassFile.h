//===- ClassFile.h - JVM classfile model -----------------------*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory model of a standard JVM classfile: version, constant pool,
/// access flags, members, and attributes. Attribute names are stored as
/// strings (resolved from / interned into the constant pool at parse and
/// write time) so transformations can filter attributes without chasing
/// Utf8 indices.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_CLASSFILE_CLASSFILE_H
#define CJPACK_CLASSFILE_CLASSFILE_H

#include "classfile/ConstantPool.h"
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace cjpack {

class ByteWriter;
struct Insn;

/// JVM access/property flags (classfile format).
enum AccessFlag : uint16_t {
  AccPublic = 0x0001,
  AccPrivate = 0x0002,
  AccProtected = 0x0004,
  AccStatic = 0x0008,
  AccFinal = 0x0010,
  AccSuper = 0x0020, // also ACC_SYNCHRONIZED on methods
  AccSynchronized = 0x0020,
  AccVolatile = 0x0040,
  AccTransient = 0x0080,
  AccNative = 0x0100,
  AccInterface = 0x0200,
  AccAbstract = 0x0400,
};

/// A raw attribute: resolved name plus its info bytes (which may contain
/// constant-pool indices interpreted per attribute kind). Both fields
/// are views: into the input buffer for borrowed parses, into the
/// class's arena for owning parses and synthesized attributes, or into
/// static storage for literal names.
struct AttributeInfo {
  std::string_view Name;
  std::span<const uint8_t> Bytes;
};

/// A field_info or method_info structure.
struct MemberInfo {
  uint16_t AccessFlags = 0;
  uint16_t NameIndex = 0;
  uint16_t DescriptorIndex = 0;
  std::vector<AttributeInfo> Attributes;
};

/// One entry of a Code attribute's exception table.
struct ExceptionTableEntry {
  uint16_t StartPc = 0;
  uint16_t EndPc = 0;
  uint16_t HandlerPc = 0;
  uint16_t CatchType = 0; ///< Class cp index, or 0 for catch-all
};

/// Parsed view of a Code attribute. Code is a subspan of the enclosing
/// attribute's bytes (no copy); re-encoded code lands in the arena.
struct CodeAttribute {
  uint16_t MaxStack = 0;
  uint16_t MaxLocals = 0;
  std::span<const uint8_t> Code;
  std::vector<ExceptionTableEntry> ExceptionTable;
  std::vector<AttributeInfo> Attributes;
};

/// A complete classfile.
struct ClassFile {
  uint16_t MinorVersion = 3;
  uint16_t MajorVersion = 45; ///< JDK 1.0.2-era default (45.3)
  ConstantPool CP;
  uint16_t AccessFlags = 0;
  uint16_t ThisClass = 0;  ///< Class cp index
  uint16_t SuperClass = 0; ///< Class cp index, 0 for java/lang/Object
  std::vector<uint16_t> Interfaces; ///< Class cp indices
  std::vector<MemberInfo> Fields;
  std::vector<MemberInfo> Methods;
  std::vector<AttributeInfo> Attributes;

  /// Internal name of this class (e.g. "java/util/HashMap").
  std::string_view thisClassName() const { return CP.className(ThisClass); }

  /// Internal name of the superclass, or "" for java/lang/Object's 0.
  std::string_view superClassName() const {
    return SuperClass == 0 ? std::string_view() : CP.className(SuperClass);
  }

  /// The arena backing this class's owned strings and payloads; shared
  /// with (and stored on) the constant pool so pool swaps and copies
  /// keep the storage alive.
  Arena &arena() { return CP.arena(); }
};

/// Finds the attribute named \p Name in \p Attrs, or nullptr.
const AttributeInfo *findAttribute(const std::vector<AttributeInfo> &Attrs,
                                   std::string_view Name);

/// Parses a Code attribute's info bytes; \p CP resolves nested attribute
/// names.
Expected<CodeAttribute> parseCodeAttribute(const AttributeInfo &Attr,
                                           const ConstantPool &CP);

/// Encodes \p Code back into an AttributeInfo named "Code", interning
/// nested attribute names into \p CP.
AttributeInfo encodeCodeAttribute(const CodeAttribute &Code,
                                  ConstantPool &CP);

/// As above, but the code array is encoded from \p Insns in place
/// (Code.Code is ignored). \p Scratch is a buffer reused across calls.
AttributeInfo encodeCodeAttribute(const CodeAttribute &Code,
                                  std::span<const Insn> Insns,
                                  ConstantPool &CP, ByteWriter &Scratch);

} // namespace cjpack

#endif // CJPACK_CLASSFILE_CLASSFILE_H
