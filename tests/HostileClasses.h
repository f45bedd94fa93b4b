//===- HostileClasses.h - classfiles with awkward constant pools -*- C++ -*-===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-built classfiles whose constant pools hit the corners of pool
/// canonicalization: duplicate equal entries, Utf8 text with NUL and
/// high bytes, Long/Double shadow slots, MethodHandle/Dynamic/
/// InvokeDynamic entries, unreachable entries, attribute names that must
/// be synthesized, ldc operands pushed past index 255, and dangling
/// indices. Entries are appended raw (no deduplication) and code is
/// written as raw bytes, so each shape is exactly as described.
///
/// Header-only: the canonicalization tests use the shapes directly, and
/// the fuzz seed generator writes them out as classfiles.
///
//===----------------------------------------------------------------------===//

#ifndef CJPACK_TESTS_HOSTILECLASSES_H
#define CJPACK_TESTS_HOSTILECLASSES_H

#include "bytecode/Opcodes.h"
#include "classfile/ClassFile.h"
#include "support/ByteBuffer.h"
#include <string>
#include <vector>

namespace cjpack::hostile {

/// Appends a raw entry (no deduplication).
inline uint16_t raw(ClassFile &CF, CpTag Tag, uint16_t Ref1 = 0,
                    uint16_t Ref2 = 0, uint64_t Bits = 0,
                    uint8_t RefKind = 0) {
  CpEntry E;
  E.Tag = Tag;
  E.Ref1 = Ref1;
  E.Ref2 = Ref2;
  E.Bits = Bits;
  E.RefKind = RefKind;
  return CF.CP.appendRaw(E);
}

/// Appends a raw Utf8 entry, its text copied into the class's arena.
inline uint16_t utf8(ClassFile &CF, std::string_view Text) {
  CpEntry E;
  E.Tag = CpTag::Utf8;
  E.Text = CF.arena().internString(Text);
  return CF.CP.appendRaw(E);
}

inline uint16_t klass(ClassFile &CF, std::string_view Name) {
  return raw(CF, CpTag::Class, utf8(CF, Name));
}

/// Raw code bytes, built with a few helpers.
struct Code {
  std::vector<uint8_t> Bytes;

  Code &op(Op O) {
    Bytes.push_back(static_cast<uint8_t>(O));
    return *this;
  }
  Code &u1(uint8_t V) {
    Bytes.push_back(V);
    return *this;
  }
  Code &u2(uint16_t V) {
    Bytes.push_back(static_cast<uint8_t>(V >> 8));
    Bytes.push_back(static_cast<uint8_t>(V));
    return *this;
  }
  Code &u4(uint32_t V) {
    u2(static_cast<uint16_t>(V >> 16));
    return u2(static_cast<uint16_t>(V));
  }
  /// ldc #Index, pop
  Code &ldc(uint16_t Index) { return op(Op::Ldc).u1(uint8_t(Index)).op(Op::Pop); }
  /// ldc_w #Index, pop
  Code &ldcW(uint16_t Index) { return op(Op::LdcW).u2(Index).op(Op::Pop); }
  /// ldc2_w #Index, pop2
  Code &ldc2W(uint16_t Index) { return op(Op::Ldc2W).u2(Index).op(Op::Pop2); }
  /// An instruction with a two-byte pool operand.
  Code &cp(Op O, uint16_t Index) { return op(O).u2(Index); }
};

/// A Code attribute over \p C's bytes, ending in `return`.
inline AttributeInfo codeAttr(ClassFile &CF, Code C,
                              std::vector<ExceptionTableEntry> Table = {}) {
  C.op(Op::Return);
  ByteWriter W;
  W.writeU2(8);
  W.writeU2(8);
  W.writeU4(static_cast<uint32_t>(C.Bytes.size()));
  W.writeBytes(C.Bytes);
  W.writeU2(static_cast<uint16_t>(Table.size()));
  for (const ExceptionTableEntry &E : Table) {
    W.writeU2(E.StartPc);
    W.writeU2(E.EndPc);
    W.writeU2(E.HandlerPc);
    W.writeU2(E.CatchType);
  }
  W.writeU2(0);
  return {"Code", CF.arena().adopt(W.take())};
}

/// Adds a method named \p Name, type ()V, with code \p C.
inline void method(ClassFile &CF, std::string_view Name, Code C,
                   std::vector<ExceptionTableEntry> Table = {}) {
  MemberInfo M;
  M.NameIndex = utf8(CF, Name);
  M.DescriptorIndex = utf8(CF, "()V");
  M.Attributes.push_back(codeAttr(CF, std::move(C), std::move(Table)));
  CF.Methods.push_back(std::move(M));
}

/// A class with this_class and super_class set; more follows per shape.
inline ClassFile skeleton(std::string_view Name) {
  ClassFile CF;
  CF.AccessFlags = AccPublic | AccSuper;
  CF.ThisClass = klass(CF, Name);
  CF.SuperClass = klass(CF, "java/lang/Object");
  return CF;
}

/// Equal entries in several copies: Utf8, Class, String, Integer,
/// NameAndType and member refs, each copy referenced separately.
inline ClassFile duplicates() {
  ClassFile CF = skeleton("hostile/Duplicates");
  uint16_t A1 = utf8(CF, "same"), A2 = utf8(CF, "same");
  uint16_t C1 = raw(CF, CpTag::Class, A1), C2 = raw(CF, CpTag::Class, A2);
  uint16_t C3 = raw(CF, CpTag::Class, A1);
  uint16_t S1 = raw(CF, CpTag::String, A2), S2 = raw(CF, CpTag::String, A1);
  uint16_t I1 = raw(CF, CpTag::Integer, 0, 0, 7);
  uint16_t I2 = raw(CF, CpTag::Integer, 0, 0, 7);
  uint16_t D = utf8(CF, "I");
  uint16_t NT1 = raw(CF, CpTag::NameAndType, A1, D);
  uint16_t NT2 = raw(CF, CpTag::NameAndType, A2, D);
  uint16_t F1 = raw(CF, CpTag::FieldRef, C1, NT1);
  uint16_t F2 = raw(CF, CpTag::FieldRef, C2, NT2);
  uint16_t F3 = raw(CF, CpTag::FieldRef, C1, NT2);
  Code C;
  C.ldc(S2).ldc(I2).ldc(S1).ldcW(I1).cp(Op::New, C3).op(Op::Pop);
  C.cp(Op::CheckCast, C2).cp(Op::GetStatic, F3).op(Op::Pop);
  C.cp(Op::GetStatic, F2).op(Op::Pop).cp(Op::GetStatic, F1).op(Op::Pop);
  method(CF, "same", std::move(C));
  method(CF, "same", Code().cp(Op::New, C1).op(Op::Pop));
  return CF;
}

/// Utf8 text with NUL bytes and bytes >= 0x80, arranged so concatenated
/// sort keys differ (or tie) across NUL separators.
inline ClassFile textBytes() {
  using namespace std::string_view_literals;
  ClassFile CF = skeleton("hostile/Text\xC3\xA9");
  std::vector<uint16_t> Refs;
  for (std::string_view T : {"a\0b"sv, "a"sv, "a\0"sv, "\xFF"sv, "\x80z"sv,
                             "z"sv, ""sv, "\0"sv, "b\0c"sv, "ab"sv})
    Refs.push_back(raw(CF, CpTag::String, utf8(CF, T)));
  // Member refs whose class/name/descriptor split the same bytes
  // differently: "a" NUL "b\0c" NUL "I" vs "a\0b" NUL "c" NUL "I".
  uint16_t I = utf8(CF, "I");
  auto Field = [&](std::string_view Cls, std::string_view Name) {
    uint16_t NT = raw(CF, CpTag::NameAndType, utf8(CF, Name), I);
    return raw(CF, CpTag::FieldRef, klass(CF, Cls), NT);
  };
  Refs.push_back(Field("a"sv, "b\0c"sv));
  Refs.push_back(Field("a\0b"sv, "c"sv));
  Refs.push_back(Field("ab"sv, "c"sv));
  Refs.push_back(Field("a"sv, "bc"sv));
  Refs.push_back(Field("\xE0"sv, ""sv));
  Refs.push_back(Field(""sv, "\xE0"sv));
  // Name-and-types "x\0" "y" and "x" "\0y": equal keys, so old order.
  uint16_t NT1 = raw(CF, CpTag::NameAndType, utf8(CF, "x\0"sv), utf8(CF, "y"));
  uint16_t NT2 = raw(CF, CpTag::NameAndType, utf8(CF, "x"), utf8(CF, "\0y"sv));
  Code C;
  for (size_t K = 0; K < 10; ++K)
    C.ldc(Refs[K]);
  for (size_t K = 10; K < Refs.size(); ++K)
    C.cp(Op::GetStatic, Refs[K]).op(Op::Pop);
  method(CF, "\xFF\xFE", std::move(C));
  uint16_t M = raw(CF, CpTag::MethodRef, CF.ThisClass, NT1);
  uint16_t M2 = raw(CF, CpTag::MethodRef, CF.ThisClass, NT2);
  method(CF, "\0"sv, Code().cp(Op::InvokeStatic, M).cp(Op::InvokeStatic, M2));
  return CF;
}

/// Long and Double entries with their shadow slots, loaded by ldc2_w
/// and a ConstantValue, duplicated, and interleaved with unreachable
/// wide entries.
inline ClassFile wideConstants() {
  ClassFile CF = skeleton("hostile/Wide");
  uint16_t L1 = raw(CF, CpTag::Long, 0, 0, 0xFFFFFFFFFFFFFFFFull);
  raw(CF, CpTag::Double, 0, 0, 0x7FF8000000000000ull); // unreachable
  uint16_t L2 = raw(CF, CpTag::Long, 0, 0, 1);
  uint16_t D1 = raw(CF, CpTag::Double, 0, 0, 0x8000000000000000ull);
  uint16_t L3 = raw(CF, CpTag::Long, 0, 0, 1); // equal to L2
  uint16_t I = raw(CF, CpTag::Integer, 0, 0, 0x80000000u);
  uint16_t F = raw(CF, CpTag::Float, 0, 0, 0x3F800000u);
  raw(CF, CpTag::Long, 0, 0, 5); // unreachable
  MemberInfo Field;
  Field.NameIndex = utf8(CF, "K");
  Field.DescriptorIndex = utf8(CF, "J");
  ByteWriter W;
  W.writeU2(L3);
  Field.Attributes.push_back({"ConstantValue", CF.arena().adopt(W.take())});
  CF.Fields.push_back(std::move(Field));
  method(CF, "wide",
         Code().ldc2W(D1).ldc2W(L1).ldc2W(L2).ldc(F).ldcW(I));
  return CF;
}

/// MethodHandle, MethodType, Dynamic and InvokeDynamic entries reached
/// through ldc and invokedynamic. Dynamic's Ref1 (a bootstrap index) is
/// followed like a pool index, as canonicalization always has.
inline ClassFile dynamicEntries() {
  ClassFile CF = skeleton("hostile/Dynamic");
  uint16_t Desc = utf8(CF, "()Ljava/lang/Object;");
  uint16_t NT = raw(CF, CpTag::NameAndType, utf8(CF, "boot"), Desc);
  uint16_t NT2 = raw(CF, CpTag::NameAndType, utf8(CF, "aaa"), Desc);
  uint16_t MR = raw(CF, CpTag::MethodRef, CF.ThisClass, NT);
  uint16_t MR2 = raw(CF, CpTag::MethodRef, CF.ThisClass, NT2);
  uint16_t MH1 = raw(CF, CpTag::MethodHandle, MR2, 0, 0, 6);
  uint16_t MH2 = raw(CF, CpTag::MethodHandle, MR, 0, 0, 6);
  uint16_t MH3 = raw(CF, CpTag::MethodHandle, MR, 0, 0, 5);
  uint16_t MT = raw(CF, CpTag::MethodType, Desc);
  uint16_t Dyn0 = raw(CF, CpTag::Dynamic, 0, NT2);
  uint16_t Dyn1 = raw(CF, CpTag::Dynamic, 1, NT);
  uint16_t Indy0 = raw(CF, CpTag::InvokeDynamic, 0, NT);
  uint16_t Indy1 = raw(CF, CpTag::InvokeDynamic, 0, NT2);
  Code C;
  C.ldc(MH2).ldc(MH1).ldcW(MH3).ldc(MT).ldc(Dyn1).ldcW(Dyn0);
  C.cp(Op::InvokeDynamic, Indy1).u2(0).op(Op::Pop);
  C.cp(Op::InvokeDynamic, Indy0).u2(0).op(Op::Pop);
  method(CF, "dyn", std::move(C));
  return CF;
}

/// Every kind of entry, half of them unreachable.
inline ClassFile unreachableEntries() {
  ClassFile CF = skeleton("hostile/Unreachable");
  std::vector<uint16_t> Keep;
  for (int K = 0; K < 6; ++K) {
    std::string N = "n" + std::to_string(K);
    uint16_t U = utf8(CF, N);
    uint16_t Cls = raw(CF, CpTag::Class, U);
    uint16_t NT = raw(CF, CpTag::NameAndType, U, utf8(CF, "I"));
    uint16_t F = raw(CF, CpTag::FieldRef, Cls, NT);
    uint16_t S = raw(CF, CpTag::String, U);
    uint16_t I = raw(CF, CpTag::Integer, 0, 0, 100 + K);
    raw(CF, CpTag::Long, 0, 0, K);
    raw(CF, CpTag::MethodType, U);
    if (K % 2 == 0) {
      Keep.push_back(F);
      Keep.push_back(S);
      Keep.push_back(I);
    }
  }
  Code C;
  for (size_t K = 0; K < Keep.size(); K += 3)
    C.cp(Op::GetStatic, Keep[K]).op(Op::Pop).ldc(Keep[K + 1]).ldc(Keep[K + 2]);
  method(CF, "m", std::move(C));
  return CF;
}

/// Attribute names that are missing from the pool ("Code",
/// "Exceptions", "Deprecated"), present only unreachably (twice), or
/// reachable only through an ldc'd string at a higher index than an
/// unreachable copy.
inline ClassFile attributeNames() {
  ClassFile CF = skeleton("hostile/Names");
  utf8(CF, "Synthetic");
  utf8(CF, "Synthetic");
  uint16_t LowConst = utf8(CF, "ConstantValue"); // unreachable copy
  (void)LowConst;
  uint16_t S = raw(CF, CpTag::String, utf8(CF, "ConstantValue"));
  uint16_t Exc = klass(CF, "java/lang/Exception");
  CF.Attributes.push_back({"Synthetic", {}});
  CF.Attributes.push_back({"Deprecated", {}});
  MemberInfo Field;
  Field.NameIndex = utf8(CF, "f");
  Field.DescriptorIndex = utf8(CF, "Ljava/lang/String;");
  ByteWriter W;
  W.writeU2(S);
  Field.Attributes.push_back({"ConstantValue", CF.arena().adopt(W.take())});
  CF.Fields.push_back(std::move(Field));
  method(CF, "m", Code().ldc(S));
  ByteWriter X;
  X.writeU2(1);
  X.writeU2(Exc);
  CF.Methods.back().Attributes.push_back(
      {"Exceptions", CF.arena().adopt(X.take())});
  return CF;
}

/// An ldc of a Class entry behind 300 Integer constants loaded by
/// ldc_w: only Integer, Float and String entries join the low ldc
/// block, so the Class cannot stay below index 256.
inline ClassFile ldcPast255() {
  ClassFile CF = skeleton("hostile/LdcPast255");
  Code C;
  for (unsigned K = 0; K < 300; ++K)
    C.ldcW(raw(CF, CpTag::Integer, 0, 0, K));
  C.ldc(CF.ThisClass);
  method(CF, "m", std::move(C));
  return CF;
}

/// 200 constants loaded by ldc_w ahead of 20 loaded by ldc, then 100
/// more strings: the ldc ones move to the front of the pool.
inline ClassFile ldcBehindOthers() {
  ClassFile CF = skeleton("hostile/LdcBehindOthers");
  Code C;
  for (unsigned K = 0; K < 200; ++K)
    C.ldcW(raw(CF, CpTag::Integer, 0, 0, 1000 + K));
  for (unsigned K = 0; K < 20; ++K)
    C.ldc(raw(CF, CpTag::Float, 0, 0, 0x40000000u + K));
  for (unsigned K = 0; K < 100; ++K)
    C.ldcW(raw(CF, CpTag::String, utf8(CF, "s" + std::to_string(K))));
  method(CF, "m", std::move(C));
  return CF;
}

/// A reference to index \p Bad from code (ldc_w) or, with \p FromEntry,
/// from a Class entry's name.
inline ClassFile danglingIndex(uint16_t Bad, bool FromEntry) {
  ClassFile CF = skeleton("hostile/Dangling");
  if (FromEntry)
    method(CF, "m", Code().cp(Op::New, raw(CF, CpTag::Class, Bad)).op(Op::Pop));
  else
    method(CF, "m", Code().ldcW(Bad));
  return CF;
}

/// A named shape.
struct Shape {
  std::string Name;
  ClassFile CF;
};

/// Every shape above, with dangling indices past the pool, into a Long's
/// shadow slot, and at slot 0 of a member ref.
inline std::vector<Shape> allShapes() {
  std::vector<Shape> Out;
  Out.push_back({"duplicates", duplicates()});
  Out.push_back({"text_bytes", textBytes()});
  Out.push_back({"wide_constants", wideConstants()});
  Out.push_back({"dynamic_entries", dynamicEntries()});
  Out.push_back({"unreachable_entries", unreachableEntries()});
  Out.push_back({"attribute_names", attributeNames()});
  Out.push_back({"ldc_past_255", ldcPast255()});
  Out.push_back({"ldc_behind_others", ldcBehindOthers()});
  Out.push_back({"dangling_past_pool", danglingIndex(60000, false)});
  Out.push_back({"dangling_class_name", danglingIndex(900, true)});
  {
    ClassFile CF = skeleton("hostile/Shadow");
    uint16_t L = raw(CF, CpTag::Long, 0, 0, 1);
    method(CF, "m", Code().ldcW(static_cast<uint16_t>(L + 1)));
    Out.push_back({"dangling_shadow_slot", std::move(CF)});
  }
  {
    // Past the pool and into a shadow slot: the lower index is reported.
    ClassFile CF = skeleton("hostile/DanglingTwice");
    uint16_t L = raw(CF, CpTag::Long, 0, 0, 1);
    method(CF, "m",
           Code().ldcW(60000).ldcW(static_cast<uint16_t>(L + 1)).ldcW(50000));
    Out.push_back({"dangling_twice", std::move(CF)});
  }
  {
    // Ref1 = 0 and a Class whose name slot is an Integer: keys read "".
    ClassFile CF = skeleton("hostile/ZeroRefs");
    uint16_t NT = raw(CF, CpTag::NameAndType, utf8(CF, "x"), utf8(CF, "I"));
    uint16_t F = raw(CF, CpTag::FieldRef, 0, NT);
    uint16_t Odd = raw(CF, CpTag::Class, raw(CF, CpTag::Integer, 0, 0, 9));
    method(CF, "m", Code().cp(Op::GetStatic, F).op(Op::Pop).cp(Op::New, Odd)
                        .op(Op::Pop).op(Op::Ldc).u1(0).op(Op::Pop));
    Out.push_back({"zero_refs", std::move(CF)});
  }
  return Out;
}

} // namespace cjpack::hostile

#endif // CJPACK_TESTS_HOSTILECLASSES_H
