//===- Writer.cpp - JVM classfile serializer ------------------------------===//
//
// Part of cjpack. MIT license.
//
//===----------------------------------------------------------------------===//

#include "classfile/Writer.h"
#include "support/ByteBuffer.h"
#include <optional>

using namespace cjpack;

template <typename NameIndexFn>
static void writeAttributes(ByteWriter &W, NameIndexFn &NameIndex,
                            const std::vector<AttributeInfo> &Attrs) {
  W.writeU2(static_cast<uint16_t>(Attrs.size()));
  for (const AttributeInfo &A : Attrs) {
    W.writeU2(NameIndex(A.Name));
    W.writeU4(static_cast<uint32_t>(A.Bytes.size()));
    W.writeBytes(A.Bytes);
  }
}

template <typename NameIndexFn>
static void writeMembers(ByteWriter &W, NameIndexFn &NameIndex,
                         const std::vector<MemberInfo> &Members) {
  W.writeU2(static_cast<uint16_t>(Members.size()));
  for (const MemberInfo &M : Members) {
    W.writeU2(M.AccessFlags);
    W.writeU2(M.NameIndex);
    W.writeU2(M.DescriptorIndex);
    writeAttributes(W, NameIndex, M.Attributes);
  }
}

static void writeConstantPool(ByteWriter &W, const ConstantPool &CP) {
  W.writeU2(CP.count());
  for (uint16_t I = 1; I < CP.count(); ++I) {
    const CpEntry &E = CP.entry(I);
    if (E.Tag == CpTag::None)
      continue; // shadow slot of a Long/Double
    W.writeU1(static_cast<uint8_t>(E.Tag));
    switch (E.Tag) {
    case CpTag::Utf8:
      W.writeU2(static_cast<uint16_t>(E.Text.size()));
      W.writeString(E.Text);
      break;
    case CpTag::Integer:
    case CpTag::Float:
      W.writeU4(static_cast<uint32_t>(E.Bits));
      break;
    case CpTag::Long:
    case CpTag::Double:
      W.writeU8(E.Bits);
      break;
    case CpTag::Class:
    case CpTag::String:
    case CpTag::MethodType:
    case CpTag::Module:
    case CpTag::Package:
      W.writeU2(E.Ref1);
      break;
    case CpTag::FieldRef:
    case CpTag::MethodRef:
    case CpTag::InterfaceMethodRef:
    case CpTag::NameAndType:
    case CpTag::Dynamic:
    case CpTag::InvokeDynamic:
      W.writeU2(E.Ref1);
      W.writeU2(E.Ref2);
      break;
    case CpTag::MethodHandle:
      W.writeU1(E.RefKind);
      W.writeU2(E.Ref1);
      break;
    case CpTag::None:
      break;
    }
  }
}

std::vector<uint8_t> cjpack::writeClassFile(const ClassFile &CF) {
  // Serialize the body first so attribute-name interning lands in the
  // pool copy before the pool is emitted. The copy is made only if the
  // pool lacks a name.
  std::optional<ConstantPool> Extended;
  auto NameIndex = [&](std::string_view Name) -> uint16_t {
    if (uint16_t Index = (Extended ? *Extended : CF.CP).findUtf8(Name))
      return Index;
    if (!Extended)
      Extended.emplace(CF.CP);
    return Extended->addUtf8(Name);
  };
  ByteWriter Body;
  Body.writeU2(CF.AccessFlags);
  Body.writeU2(CF.ThisClass);
  Body.writeU2(CF.SuperClass);
  Body.writeU2(static_cast<uint16_t>(CF.Interfaces.size()));
  for (uint16_t I : CF.Interfaces)
    Body.writeU2(I);
  writeMembers(Body, NameIndex, CF.Fields);
  writeMembers(Body, NameIndex, CF.Methods);
  writeAttributes(Body, NameIndex, CF.Attributes);

  ByteWriter W;
  W.writeU4(0xCAFEBABEu);
  W.writeU2(CF.MinorVersion);
  W.writeU2(CF.MajorVersion);
  writeConstantPool(W, Extended ? *Extended : CF.CP);
  W.writeBytes(Body.data());
  return W.take();
}
